"""Codec fuzz net: truncated and garbled binary bodies fail typed, never hang.

One request frame holds every value tag the binary codec knows (None,
both booleans, int, float, str, list, dict, Triple, RelationPath,
MatchedPath, Explanation, a spliced blob, TraceContext and MutationSpec).

* **Decoder** — every prefix of that frame, and seeded 1–3-byte
  corruptions of it, must either decode or raise
  :class:`ProtocolError`; any other exception type is a hole in the
  typed-error contract that a peer could use to kill a connection
  thread.
* **Real server** — the same garbage sent to a :class:`ShardServer`
  must come back as a response frame or a hang-up within the client
  timeout, never a hang.  A body the decoder rejects must be answered
  with a ``ProtocolError`` error frame, then a hang-up.
* **Deep nesting** — 100,000 nested one-element lists fit the frame
  bound easily but outrun the interpreter stack; the decoder must turn
  that into a :class:`ProtocolError` on both ends of the wire.
"""

import random
import socket
import threading

import pytest

from repro.core.explanation import Explanation, MatchedPath, RelationPath
from repro.kg import Triple
from repro.service import (
    ExplanationService,
    MutationSpec,
    RemoteShardClient,
    RemoteTransportError,
    ServiceConfig,
    ShardServer,
    TraceContext,
)
from repro.service.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    ProtocolError,
    decode_binary,
    encode_binary,
    encode_binary_value,
    frame_raw,
    recv_frame_raw,
    send_raw_frame,
)
from repro.service.transport.wire import BINARY_MAGIC, BINARY_VERSION

#: Seed of every generator in this module (corruption positions/bytes).
SEED = 2323
#: Seeded corruptions checked against the decoder.
DECODER_CORRUPTIONS = 20_000
#: Seeded corruptions sent to a real server (one connection each).
SERVER_CORRUPTIONS = 120
#: Client socket timeout while waiting for the server's answer (seconds).
CLIENT_TIMEOUT = 10.0


def every_tag_payload() -> dict:
    """A ping request whose extra keys carry one value of every tag."""
    first = Triple("e1", "r1", "e2")
    second = Triple("f1", "r2", "f2")
    path1 = RelationPath(source="e1", target="e2", triples=(first,))
    path2 = RelationPath(source="f1", target="f2", triples=(second,))
    match = MatchedPath(path1=path1, path2=path2, similarity=0.625)
    explanation = Explanation(
        source="e1",
        target="f1",
        matched_paths=[match],
        candidate_triples1={first},
        candidate_triples2={second},
    )
    return {
        "op": "ping",
        "trace": TraceContext("t" * 16, "s" * 16, "p" * 16, True),
        "values": [
            None,
            True,
            False,
            -300,
            2.5,
            "text",
            [1, [2]],
            {"key": 0},
            first,
            path1,
            match,
            explanation,
            encode_binary_value(explanation),
            MutationSpec(op="add", kg=1, triple=second),
        ],
    }


FRAME_BODY = encode_binary(every_tag_payload())


def corruptions(body: bytes, count: int, seed: int = SEED):
    """*count* copies of *body*, each with 1–3 bytes overwritten (seeded)."""
    rng = random.Random(seed)
    for _ in range(count):
        corrupted = bytearray(body)
        for _ in range(rng.randint(1, 3)):
            corrupted[rng.randrange(len(corrupted))] = rng.randrange(256)
        yield bytes(corrupted)


def decodes_or_raises_protocol_error(body: bytes, blob_cache: dict | None = None) -> bool:
    """True when *body* decodes; False on :class:`ProtocolError`.

    Any other exception type propagates and fails the calling test.
    """
    try:
        decode_binary(body, blob_cache)
    except ProtocolError:
        return False
    return True


class TestDecoderFuzz:
    def test_the_frame_holds_every_tag_and_roundtrips(self):
        expected = every_tag_payload()
        # The blob decodes to the value it was encoded from.
        expected["values"][12] = expected["values"][11]
        assert decode_binary(FRAME_BODY) == expected

    def test_every_prefix_decodes_or_raises_protocol_error(self):
        for end in range(len(FRAME_BODY)):
            assert not decodes_or_raises_protocol_error(FRAME_BODY[:end]), end

    def test_seeded_corruptions_decode_or_raise_protocol_error(self):
        blob_cache: dict = {}
        rejected = 0
        for body in corruptions(FRAME_BODY, DECODER_CORRUPTIONS):
            if not decodes_or_raises_protocol_error(body):
                rejected += 1
            # A shared blob cache must not turn garbage into a crash either.
            decodes_or_raises_protocol_error(body, blob_cache)
        # The net is not vacuous: most corruptions are caught as typed errors.
        assert rejected > DECODER_CORRUPTIONS // 4


# ----------------------------------------------------------------------
# Garbage against a real server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fuzz_server(fitted_model, service_dataset):
    service = ExplanationService(
        fitted_model, service_dataset, ServiceConfig(num_workers=1)
    ).start()
    server = ShardServer(service, shard_id=0, num_shards=1)
    address = server.bind("127.0.0.1:0")
    server.start_in_thread()
    host, port = address.rsplit(":", 1)
    yield host, int(port)
    server.stop()
    service.close(drain=False)


def _exchange(address, body: bytes) -> tuple[dict | None, bool]:
    """Send one garbage body; return ``(response or None, hung_up)``.

    The socket timeout turns a hang into a test failure
    (:class:`FrameTimeoutError` from the framing layer).
    """
    with socket.create_connection(address, timeout=CLIENT_TIMEOUT) as conn:
        send_raw_frame(conn, frame_raw(body))
        answer = recv_frame_raw(conn)
        if answer is None:
            return None, True
        response = decode_binary(answer)
        if decodes_or_raises_protocol_error(body):
            return response, False
        # Undecodable: the error frame is followed by a hang-up.
        return response, recv_frame_raw(conn) is None


def _garbage_bodies():
    yield from (FRAME_BODY[:end] for end in range(len(FRAME_BODY)))
    yield from corruptions(FRAME_BODY, SERVER_CORRUPTIONS, seed=SEED + 1)
    rng = random.Random(SEED + 2)
    for _ in range(20):
        yield bytes(rng.randrange(256) for _ in range(rng.randint(1, 64)))


class TestServerFuzz:
    def test_garbage_gets_an_answer_or_a_hangup_never_a_hang(self, fuzz_server):
        typed_rejections = 0
        for body in _garbage_bodies():
            response, hung_up = _exchange(fuzz_server, body)
            if decodes_or_raises_protocol_error(body):
                # A body that happens to decode is an ordinary request.
                assert response is not None
                continue
            assert hung_up, body
            if response is not None:
                assert response["error"]["type"] == "ProtocolError", response
                typed_rejections += 1
        assert typed_rejections > 0

    def test_server_still_serves_after_the_fuzz(self, fuzz_server):
        for body in corruptions(FRAME_BODY, 20, seed=SEED + 3):
            _exchange(fuzz_server, body)
        response, _ = _exchange(fuzz_server, encode_binary({"op": "ping"}))
        assert response["ok"]["shard_id"] == 0


# ----------------------------------------------------------------------
# Deep nesting
# ----------------------------------------------------------------------
def deeply_nested_body(depth: int = 100_000) -> bytes:
    """A binary body of *depth* nested one-element lists (2 bytes a level)."""
    header = bytes([BINARY_MAGIC, BINARY_VERSION, 0, 0])  # id 0, empty string table
    return header + b"\x06\x01" * depth + b"\x00"


class TestDeepNesting:
    def test_decoder_raises_protocol_error(self):
        body = deeply_nested_body()
        assert len(body) < DEFAULT_MAX_FRAME_BYTES
        with pytest.raises(ProtocolError, match="nests"):
            decode_binary(body)

    def test_server_answers_with_a_protocol_error_frame(self, fuzz_server):
        response, hung_up = _exchange(fuzz_server, deeply_nested_body())
        assert response is not None, "the server hung up without an error frame"
        assert response["error"]["type"] == "ProtocolError"
        assert hung_up

    def test_client_raises_a_transport_error_on_a_nested_response(self):
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def answer_nested():
            conn, _ = listener.accept()
            with conn:
                while recv_frame_raw(conn) is not None:
                    send_raw_frame(conn, frame_raw(deeply_nested_body()))

        responder = threading.Thread(target=answer_nested, daemon=True)
        responder.start()
        client = RemoteShardClient(f"{host}:{port}", timeout=CLIENT_TIMEOUT)
        try:
            with pytest.raises(RemoteTransportError, match="nests"):
                client.call({"op": "ping"})
        finally:
            client.close()
            responder.join(timeout=CLIENT_TIMEOUT)
            listener.close()
