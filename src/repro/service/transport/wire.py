"""Binary wire codec v2: compact tag-length-value frame bodies with string interning.

This is the one body codec of the remote transport: every frame body of
:mod:`~repro.service.transport.framing` is encoded here, built on stdlib
``struct``:

* **Per-frame string table** — every string (entity/relation names, dict
  keys, operation names) is interned once per frame and referenced by
  varint index, so a batch frame carrying 256 explanations of 20 hot
  pairs stores each URI once.
* **Native result tags** — :class:`~repro.kg.Triple`,
  :class:`~repro.core.explanation.paths.RelationPath`,
  :class:`~repro.core.explanation.subgraph.MatchedPath` and
  :class:`~repro.core.explanation.subgraph.Explanation` encode directly
  (no intermediate dicts) and decode back to *equal* objects, keeping the
  bit-identical remote contract.
* **Blob splicing** — a value may be pre-encoded once into a standalone
  byte string (:func:`encode_binary_value`) and spliced into any number
  of later frames as an opaque :class:`Blob` (one ``bytearray`` extend,
  no re-walk).  The server keeps per-generation encode caches of hot
  explanation results; the client mirrors it with a decode cache keyed on
  the blob bytes, so a warm replay moves memcpys, not codecs.

Every body starts with the magic byte ``0xB2`` and the version byte, so a
peer speaking anything else is rejected with a typed
:class:`~repro.service.transport.framing.ProtocolError` — as is any
truncated, garbled or too deeply nested body; the decoder raises no other
exception type.  Exceeding ``max_frame_bytes`` raises
:class:`~repro.service.transport.framing.FrameTooLargeError` at encode
time, before any socket is touched.

Frame body layout (after the 4-byte length prefix of the framing layer)::

    magic 0xB2 | version 0x02 | reserved varint (written 0, skipped on read)
    | table-count varint | table entries (varint byte-length + UTF-8) ...
    | root value (TLV)

Value tags::

    0x00 None   0x01 False   0x02 True
    0x03 int (zigzag varint)           0x04 float (8-byte IEEE double)
    0x05 str (varint table index)      0x06 list (varint count + values)
    0x07 dict (varint count + (key index, value) pairs)
    0x08 Triple (3 indices)            0x09 RelationPath (src, tgt, triples)
    0x0A MatchedPath (2 paths + sim)   0x0B Explanation (full result)
    0x0C blob (varint length + standalone-encoded value)
    0x0D TraceContext (trace/span/parent indices + sampled flag)
    0x0E MutationSpec (op index, kg varint, triple)
"""

from __future__ import annotations

import struct

from ...core.explanation import Explanation, MatchedPath, RelationPath
from ...kg import Triple
from ..observability.context import TraceContext
from ..service import MutationSpec
from .framing import FrameTooLargeError, ProtocolError

#: First byte of every frame body.
BINARY_MAGIC = 0xB2
#: Wire revision carried in byte 1 of every frame body.
BINARY_VERSION = 2

_DOUBLE = struct.Struct(">d")

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_LIST = 0x06
_TAG_DICT = 0x07
_TAG_TRIPLE = 0x08
_TAG_PATH = 0x09
_TAG_MATCH = 0x0A
_TAG_EXPL = 0x0B
_TAG_BLOB = 0x0C
_TAG_TRACE = 0x0D
_TAG_MUTATION = 0x0E


class Blob:
    """A value pre-encoded by :func:`encode_binary_value`, spliced verbatim.

    Wrapping the bytes in a distinct type (rather than passing ``bytes``)
    keeps the encoder honest: only byte strings produced by this codec
    are ever spliced into a frame.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(view: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    try:
        while True:
            byte = view[offset]
            offset += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, offset
            shift += 7
            if shift > 70:
                raise ProtocolError("binary frame varint exceeds 10 bytes")
    except IndexError:
        raise ProtocolError("binary frame truncated inside a varint") from None


class _Encoder:
    """One frame's encoding state: string table + body buffer."""

    __slots__ = ("body", "table", "index")

    def __init__(self) -> None:
        self.body = bytearray()
        self.table: list[str] = []
        self.index: dict[str, int] = {}

    def intern(self, text: str) -> int:
        """Table index of *text*, adding it on first sight."""
        slot = self.index.get(text)
        if slot is None:
            slot = len(self.table)
            self.index[text] = slot
            self.table.append(text)
        return slot

    # ------------------------------------------------------------------
    def write_value(self, value) -> None:
        """Append one TLV value to the body."""
        body = self.body
        if value is None:
            body.append(_TAG_NONE)
        elif value is True:
            body.append(_TAG_TRUE)
        elif value is False:
            body.append(_TAG_FALSE)
        elif type(value) is str:
            body.append(_TAG_STR)
            _write_varint(body, self.intern(value))
        elif type(value) is float:
            body.append(_TAG_FLOAT)
            body += _DOUBLE.pack(value)
        elif type(value) is int:
            body.append(_TAG_INT)
            # zigzag so small negatives stay small
            _write_varint(body, (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1)
        elif type(value) is list or type(value) is tuple:
            body.append(_TAG_LIST)
            _write_varint(body, len(value))
            for item in value:
                self.write_value(item)
        elif type(value) is dict:
            body.append(_TAG_DICT)
            _write_varint(body, len(value))
            for key, item in value.items():
                if type(key) is not str:
                    raise ProtocolError(
                        f"binary frame dict keys must be strings, got {type(key).__name__}"
                    )
                _write_varint(body, self.intern(key))
                self.write_value(item)
        elif isinstance(value, Blob):
            body.append(_TAG_BLOB)
            _write_varint(body, len(value.data))
            body += value.data  # splice: one extend, no re-walk
        elif isinstance(value, Explanation):
            body.append(_TAG_EXPL)
            self._write_explanation(value)
        elif isinstance(value, Triple):
            body.append(_TAG_TRIPLE)
            self._write_triple(value)
        elif isinstance(value, RelationPath):
            body.append(_TAG_PATH)
            self._write_path(value)
        elif isinstance(value, MatchedPath):
            body.append(_TAG_MATCH)
            self._write_match(value)
        elif isinstance(value, TraceContext):
            body.append(_TAG_TRACE)
            self._write_trace(value)
        elif isinstance(value, MutationSpec):
            body.append(_TAG_MUTATION)
            self._write_mutation(value)
        elif isinstance(value, str):  # str subclasses
            body.append(_TAG_STR)
            _write_varint(body, self.intern(str(value)))
        elif isinstance(value, bool):  # bool/int subclasses, after exact checks
            body.append(_TAG_TRUE if value else _TAG_FALSE)
        elif isinstance(value, int):
            self.write_value(int(value))
        elif isinstance(value, float):
            self.write_value(float(value))
        else:
            raise ProtocolError(
                f"binary codec cannot encode values of type {type(value).__name__}"
            )

    def _write_triple(self, triple: Triple) -> None:
        body = self.body
        _write_varint(body, self.intern(triple.head))
        _write_varint(body, self.intern(triple.relation))
        _write_varint(body, self.intern(triple.tail))

    def _write_path(self, path: RelationPath) -> None:
        body = self.body
        _write_varint(body, self.intern(path.source))
        _write_varint(body, self.intern(path.target))
        _write_varint(body, len(path.triples))
        for triple in path.triples:
            self._write_triple(triple)

    def _write_match(self, match: MatchedPath) -> None:
        self._write_path(match.path1)
        self._write_path(match.path2)
        self.body += _DOUBLE.pack(match.similarity)

    def _write_trace(self, trace: TraceContext) -> None:
        body = self.body
        _write_varint(body, self.intern(trace.trace_id))
        _write_varint(body, self.intern(trace.span_id))
        _write_varint(body, self.intern(trace.parent_span_id or ""))
        body.append(0x01 if trace.sampled else 0x00)

    def _write_mutation(self, spec: MutationSpec) -> None:
        _write_varint(self.body, self.intern(spec.op))
        _write_varint(self.body, spec.kg)
        self._write_triple(spec.triple)

    def _write_explanation(self, explanation: Explanation) -> None:
        body = self.body
        _write_varint(body, self.intern(explanation.source))
        _write_varint(body, self.intern(explanation.target))
        _write_varint(body, len(explanation.matched_paths))
        for match in explanation.matched_paths:
            self._write_match(match)
        # Candidate sets are written sorted so equal explanations encode to
        # identical bytes — which is what lets the client's blob-decode
        # cache dedup them.
        for candidates in (explanation.candidate_triples1, explanation.candidate_triples2):
            _write_varint(body, len(candidates))
            for triple in sorted(candidates, key=_triple_key):
                self._write_triple(triple)

    # ------------------------------------------------------------------
    def standalone(self) -> bytes:
        """Table + body, without the frame header (blob form)."""
        out = bytearray()
        self._write_table(out)
        out += self.body
        return bytes(out)

    def frame_body(self) -> bytes:
        """Magic + version + reserved 0 + table + body (a complete frame body)."""
        out = bytearray((BINARY_MAGIC, BINARY_VERSION, 0))
        self._write_table(out)
        out += self.body
        return bytes(out)

    def _write_table(self, out: bytearray) -> None:
        _write_varint(out, len(self.table))
        for text in self.table:
            raw = text.encode("utf-8")
            _write_varint(out, len(raw))
            out += raw


def _triple_key(triple: Triple) -> tuple[str, str, str]:
    return (triple.head, triple.relation, triple.tail)


def encode_binary_value(value) -> Blob:
    """Pre-encode one value into a standalone :class:`Blob`.

    The blob carries its own string table, so it can be spliced into any
    frame (and cached across frames) without re-interning.
    """
    encoder = _Encoder()
    encoder.write_value(value)
    return Blob(encoder.standalone())


def encode_binary(payload: dict, max_frame_bytes: int | None = None) -> bytes:
    """Encode *payload* into one binary frame body.

    Raises:
        FrameTooLargeError: the encoded body exceeds *max_frame_bytes*.
        ProtocolError: the payload holds an unencodable value.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    encoder = _Encoder()
    encoder.write_value(payload)
    body = encoder.frame_body()
    if max_frame_bytes is not None and len(body) > max_frame_bytes:
        raise FrameTooLargeError(
            f"outgoing binary frame of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte bound"
        )
    return body


class _Decoder:
    """One frame's decoding state: resolved string table + cursor."""

    __slots__ = ("view", "offset", "table", "blob_cache")

    def __init__(self, view: bytes, offset: int, blob_cache: dict | None) -> None:
        self.view = view
        self.offset = offset
        self.blob_cache = blob_cache
        self.table: list[str] = []
        self._read_table()

    def _read_table(self) -> None:
        count, offset = _read_varint(self.view, self.offset)
        view = self.view
        table = self.table
        try:
            for _ in range(count):
                length, offset = _read_varint(view, offset)
                raw = view[offset : offset + length]
                if len(raw) != length:
                    raise ProtocolError("binary frame truncated inside its string table")
                table.append(raw.decode("utf-8"))
                offset += length
        except UnicodeDecodeError as error:
            raise ProtocolError(f"binary frame string table is not UTF-8: {error}") from error
        self.offset = offset

    def _string(self) -> str:
        index, self.offset = _read_varint(self.view, self.offset)
        try:
            return self.table[index]
        except IndexError:
            raise ProtocolError(
                f"binary frame references string {index} beyond its {len(self.table)}-entry table"
            ) from None

    def read_value(self):
        view = self.view
        offset = self.offset
        try:
            tag = view[offset]
        except IndexError:
            raise ProtocolError("binary frame truncated before a value tag") from None
        self.offset = offset + 1
        if tag == _TAG_STR:
            return self._string()
        if tag == _TAG_INT:
            raw, self.offset = _read_varint(view, self.offset)
            return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)
        if tag == _TAG_FLOAT:
            end = self.offset + 8
            if end > len(view):
                raise ProtocolError("binary frame truncated inside a float")
            (value,) = _DOUBLE.unpack_from(view, self.offset)
            self.offset = end
            return value
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_LIST:
            count, self.offset = _read_varint(view, self.offset)
            return [self.read_value() for _ in range(count)]
        if tag == _TAG_DICT:
            count, self.offset = _read_varint(view, self.offset)
            result = {}
            for _ in range(count):
                key = self._string()
                result[key] = self.read_value()
            return result
        if tag == _TAG_TRIPLE:
            return self._read_triple()
        if tag == _TAG_PATH:
            return self._read_path()
        if tag == _TAG_MATCH:
            return self._read_match()
        if tag == _TAG_EXPL:
            return self._read_explanation()
        if tag == _TAG_BLOB:
            return self._read_blob()
        if tag == _TAG_TRACE:
            return self._read_trace()
        if tag == _TAG_MUTATION:
            return self._read_mutation()
        raise ProtocolError(f"binary frame carries unknown value tag 0x{tag:02X}")

    def _read_triple(self) -> Triple:
        return Triple(self._string(), self._string(), self._string())

    def _read_path(self) -> RelationPath:
        source = self._string()
        target = self._string()
        count, self.offset = _read_varint(self.view, self.offset)
        return RelationPath(
            source=source,
            target=target,
            triples=tuple(self._read_triple() for _ in range(count)),
        )

    def _read_match(self) -> MatchedPath:
        path1 = self._read_path()
        path2 = self._read_path()
        end = self.offset + 8
        if end > len(self.view):
            raise ProtocolError("binary frame truncated inside a similarity")
        (similarity,) = _DOUBLE.unpack_from(self.view, self.offset)
        self.offset = end
        return MatchedPath(path1=path1, path2=path2, similarity=similarity)

    def _read_explanation(self) -> Explanation:
        source = self._string()
        target = self._string()
        count, self.offset = _read_varint(self.view, self.offset)
        matched = [self._read_match() for _ in range(count)]
        candidates = []
        for _ in range(2):
            size, self.offset = _read_varint(self.view, self.offset)
            candidates.append({self._read_triple() for _ in range(size)})
        return Explanation(
            source=source,
            target=target,
            matched_paths=matched,
            candidate_triples1=candidates[0],
            candidate_triples2=candidates[1],
        )

    def _read_trace(self) -> TraceContext:
        trace_id = self._string()
        span_id = self._string()
        parent = self._string()
        offset = self.offset
        if offset >= len(self.view):
            raise ProtocolError("binary frame truncated inside a trace context")
        sampled = self.view[offset] != 0x00
        self.offset = offset + 1
        return TraceContext(
            trace_id=trace_id,
            span_id=span_id,
            parent_span_id=parent or None,
            sampled=sampled,
        )

    def _read_mutation(self) -> MutationSpec:
        op = self._string()
        kg, self.offset = _read_varint(self.view, self.offset)
        try:
            return MutationSpec(op=op, kg=kg, triple=self._read_triple())
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"binary frame carries a malformed mutation: {error}") from error

    def _read_blob(self):
        length, offset = _read_varint(self.view, self.offset)
        end = offset + length
        if end > len(self.view):
            raise ProtocolError("binary frame truncated inside a blob")
        raw = bytes(self.view[offset:end])
        self.offset = end
        cache = self.blob_cache
        if cache is not None:
            cached = cache.get(raw)
            if cached is not None:
                return cached
        value = _Decoder(raw, 0, None).read_value()
        if cache is not None:
            if len(cache) >= _BLOB_CACHE_CAPACITY:
                cache.clear()  # hot sets are tiny; wholesale reset is fine
            cache[raw] = value
        return value


#: Entries kept in a client-side blob-decode cache before a reset.
_BLOB_CACHE_CAPACITY = 8192


def decode_binary(body: bytes, blob_cache: dict | None = None) -> dict:
    """Decode one frame body into its payload dict.

    *blob_cache* (optional) maps standalone blob bytes to their decoded
    values, so repeated hot results decode once; pass a dict owned by the
    connection.

    Raises:
        ProtocolError: the body is not a v2 body, is malformed or nests
            too deeply, or its root is not an object.
    """
    if len(body) < 2 or body[0] != BINARY_MAGIC:
        raise ProtocolError("frame body is not a binary v2 body")
    if body[1] != BINARY_VERSION:
        raise ProtocolError(
            f"binary frame announces wire version {body[1]}, this peer speaks {BINARY_VERSION}"
        )
    _, offset = _read_varint(body, 2)
    decoder = _Decoder(body, offset, blob_cache)
    try:
        payload = decoder.read_value()
    except RecursionError:
        # Nesting is bounded only by the frame size: a few hundred KB of
        # one-element lists outruns the interpreter stack.
        raise ProtocolError("binary frame nests values too deeply to decode") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    return payload


__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "Blob",
    "decode_binary",
    "encode_binary",
    "encode_binary_value",
]
