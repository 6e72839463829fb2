"""Binary wire v2 codec tests.

Three layers of coverage:

* **Codec property tests** — seeded randomized payloads (nested
  containers, unicode entity names, explanation/path/triple results,
  error envelopes, empty batches) round-trip bit-identically through
  ``encode_binary``/``decode_binary``; equal explanations encode to
  *identical bytes* regardless of candidate-set iteration order (what
  the blob caches key on); malformed and oversized bodies are rejected
  with typed errors.
* **Blob splicing** — pre-encoded values splice into frames and decode
  back equal; the decode cache returns the cached object on a repeat.
* **Real servers** — a server answers a body in any other codec with a
  ``ProtocolError`` error frame and a response beyond its frame bound
  with a ``FrameTooLargeError`` error frame on a connection that stays
  up; wire telemetry surfaces on both ends.
"""

import json
import random
import socket

import pytest

from repro.core.explanation import Explanation, MatchedPath, RelationPath
from repro.kg import Triple
from repro.service import (
    EXPLAIN,
    ExplanationService,
    RemoteShardClient,
    ServiceConfig,
    ServiceStats,
    ShardServer,
    merge_raw,
)
from repro.service.transport import (
    FrameTooLargeError,
    ProtocolError,
    decode_binary,
    encode_binary,
    encode_binary_value,
    encode_error,
    frame_raw,
    recv_frame_raw,
    send_raw_frame,
)
from repro.service.transport.protocol import decode_error
from repro.service.transport.wire import BINARY_MAGIC, BINARY_VERSION, Blob

UNICODE_NAMES = [
    "实体/甲",
    "エンティティ·β",
    "Ωμέγα-entité",
    "plain_ascii",
    "with space and \t tab",
    "",
    "🐍",
]


def _random_triple(rng: random.Random) -> Triple:
    return Triple(
        rng.choice(UNICODE_NAMES) + str(rng.randrange(40)),
        f"rel_{rng.randrange(8)}",
        rng.choice(UNICODE_NAMES) + str(rng.randrange(40)),
    )


def _random_path(rng: random.Random) -> RelationPath:
    triples = tuple(_random_triple(rng) for _ in range(rng.randrange(0, 4)))
    return RelationPath(
        source=rng.choice(UNICODE_NAMES) or "s",
        target=rng.choice(UNICODE_NAMES) or "t",
        triples=triples,
    )


def _random_explanation(rng: random.Random) -> Explanation:
    matched = [
        MatchedPath(
            path1=_random_path(rng),
            path2=_random_path(rng),
            similarity=rng.random(),
        )
        for _ in range(rng.randrange(0, 4))
    ]
    return Explanation(
        source=rng.choice(UNICODE_NAMES) or "src",
        target=rng.choice(UNICODE_NAMES) or "tgt",
        matched_paths=matched,
        candidate_triples1={_random_triple(rng) for _ in range(rng.randrange(0, 5))},
        candidate_triples2={_random_triple(rng) for _ in range(rng.randrange(0, 5))},
    )


def _random_value(rng: random.Random, depth: int = 0):
    kinds = ["none", "bool", "int", "float", "str", "triple", "path", "match", "expl"]
    if depth < 3:
        kinds += ["list", "dict"] * 2
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice(
            [0, 1, -1, 127, -128, 2**31, -(2**31), 2**62, rng.randrange(-(10**6), 10**6)]
        )
    if kind == "float":
        return rng.choice([0.0, -0.0, 1e-300, -1e300, 0.1 + 0.2, rng.random()])
    if kind == "str":
        return rng.choice(UNICODE_NAMES)
    if kind == "triple":
        return _random_triple(rng)
    if kind == "path":
        return _random_path(rng)
    if kind == "match":
        return MatchedPath(
            path1=_random_path(rng), path2=_random_path(rng), similarity=rng.random()
        )
    if kind == "expl":
        return _random_explanation(rng)
    if kind == "list":
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
    return {
        rng.choice(UNICODE_NAMES) + str(i): _random_value(rng, depth + 1)
        for i in range(rng.randrange(0, 5))
    }


class TestBinaryCodec:
    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_payloads_roundtrip_equal(self, seed):
        rng = random.Random(seed)
        payload = {
            "op": "batch",
            "results": [_random_value(rng) for _ in range(rng.randrange(0, 6))],
            "meta": _random_value(rng),
        }
        decoded = decode_binary(encode_binary(payload))

        # Tuples legitimately come back as lists; compare
        # through a canonical form that erases only that difference.
        def canon(value):
            if isinstance(value, tuple) and not isinstance(value, Triple):
                return [canon(item) for item in value]
            if isinstance(value, list):
                return [canon(item) for item in value]
            if isinstance(value, dict):
                return {key: canon(item) for key, item in value.items()}
            if isinstance(value, RelationPath):
                return RelationPath(
                    source=value.source, target=value.target, triples=value.triples
                )
            return value

        assert canon(decoded) == canon(payload)

    def test_header_is_magic_version_and_a_zero_reserved_varint(self):
        body = encode_binary({"op": "ping"})
        assert body[:3] == bytes([BINARY_MAGIC, BINARY_VERSION, 0])
        # Readers skip the reserved varint whatever it holds.
        assert decode_binary(body[:2] + bytes([0x85, 0x03]) + body[3:]) == {"op": "ping"}

    def test_empty_batch_roundtrips(self):
        body = encode_binary({"op": "batch", "items": []})
        assert decode_binary(body) == {"op": "batch", "items": []}

    def test_error_envelopes_roundtrip_as_their_own_type(self):
        for error in (FrameTooLargeError("too big"), ValueError("bad kind")):
            body = encode_binary({"error": encode_error(error)})
            decoded = decode_binary(body)
            revived = decode_error(decoded["error"])
            assert type(revived) is type(error)
            assert str(error) in str(revived)

    def test_equal_explanations_encode_to_identical_bytes(self):
        """Candidate sets iterate in arbitrary order; the encoder must
        serialise them canonically or the blob caches never hit."""
        rng = random.Random(11)
        explanation = _random_explanation(rng)
        while len(explanation.candidate_triples1) < 3:
            explanation = _random_explanation(rng)
        # A same-valued explanation whose sets were built in another order.
        reordered = Explanation(
            source=explanation.source,
            target=explanation.target,
            matched_paths=list(explanation.matched_paths),
            candidate_triples1=set(reversed(sorted(
                explanation.candidate_triples1,
                key=lambda t: (t.head, t.relation, t.tail),
            ))),
            candidate_triples2=set(explanation.candidate_triples2),
        )
        assert explanation == reordered
        assert encode_binary_value(explanation).data == encode_binary_value(reordered).data

    def test_oversized_binary_frame_rejected_at_encode_time(self):
        with pytest.raises(FrameTooLargeError):
            encode_binary({"blob": "x" * 2048}, max_frame_bytes=1024)

    def test_wrong_version_rejected(self):
        body = bytearray(encode_binary({"op": "ping"}))
        body[1] = 9  # future wire version
        with pytest.raises(ProtocolError, match="version"):
            decode_binary(bytes(body))

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b'{"op": "ping"}',  # a JSON object is not a binary body
            bytes([BINARY_MAGIC]),  # magic alone, no version
            encode_binary({"op": "ping"})[:-1],  # truncated value
            bytes([BINARY_MAGIC, 2, 0x80]),  # unterminated varint
            bytes([BINARY_MAGIC, 2, 0, 0, 0xFF]),  # unknown tag
        ],
    )
    def test_malformed_bodies_raise_protocol_error(self, body):
        with pytest.raises(ProtocolError):
            decode_binary(body)

    def test_non_object_root_rejected_like_json(self):
        blob = encode_binary_value([1, 2, 3])
        body = bytes([BINARY_MAGIC, 2, 0]) + blob.data
        with pytest.raises(ProtocolError, match="object"):
            decode_binary(body)

    def test_string_table_index_out_of_range_rejected(self):
        body = bytes([BINARY_MAGIC, 2, 0, 0, 0x05, 3])  # str #3 of an empty table
        with pytest.raises(ProtocolError, match="table"):
            decode_binary(body)


class TestBlobSplicing:
    def test_blob_splices_and_decodes_back_to_the_value(self):
        rng = random.Random(5)
        explanation = _random_explanation(rng)
        blob = encode_binary_value(explanation)
        decoded = decode_binary(encode_binary({"ok": blob, "plain": "x"}))
        assert decoded["ok"] == explanation
        assert decoded["plain"] == "x"

    def test_blob_cache_returns_the_cached_object(self):
        explanation = _random_explanation(random.Random(6))
        blob = encode_binary_value(explanation)
        cache: dict = {}
        first = decode_binary(encode_binary({"ok": blob}), cache)
        second = decode_binary(encode_binary({"ok": blob}), cache)
        assert first["ok"] == explanation
        assert second["ok"] is first["ok"]  # no second decode
        assert len(cache) == 1

    def test_same_value_blobs_share_one_cache_entry(self):
        """Deterministic bytes mean two independently-encoded equal values
        land on the same cache slot."""
        explanation = _random_explanation(random.Random(8))
        copy = Explanation(
            source=explanation.source,
            target=explanation.target,
            matched_paths=list(explanation.matched_paths),
            candidate_triples1=set(explanation.candidate_triples1),
            candidate_triples2=set(explanation.candidate_triples2),
        )
        cache: dict = {}
        first = decode_binary(encode_binary({"ok": encode_binary_value(explanation)}), cache)
        second = decode_binary(encode_binary({"ok": encode_binary_value(copy)}), cache)
        assert len(cache) == 1
        assert second["ok"] is first["ok"]

    def test_only_codec_blobs_are_spliceable(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_binary({"ok": b"raw bytes are not a Blob"})
        assert isinstance(encode_binary_value("x"), Blob)


# ----------------------------------------------------------------------
# Real servers
# ----------------------------------------------------------------------
@pytest.fixture()
def running_server(fitted_model, service_dataset):
    """A started service behind a server on a loopback socket."""
    service = ExplanationService(
        fitted_model, service_dataset, ServiceConfig(num_workers=2)
    ).start()
    server = ShardServer(service, shard_id=0, num_shards=1)
    address = server.bind("127.0.0.1:0")
    server.start_in_thread()
    yield server, address
    server.stop()
    service.close(drain=False)


def predicted_pairs(model, limit=20):
    return sorted(model.predict().pairs)[:limit]


class TestServerCodec:
    def test_json_body_gets_a_protocol_error_frame_then_a_hangup(self, running_server):
        _, address = running_server
        host, port = address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            send_raw_frame(conn, frame_raw(json.dumps({"op": "ping"}).encode("utf-8")))
            response = decode_binary(recv_frame_raw(conn))
            assert isinstance(decode_error(response["error"]), ProtocolError)
            assert recv_frame_raw(conn) is None

    def test_explain_results_equal_the_in_process_service(self, running_server, fitted_model):
        server, address = running_server
        client = RemoteShardClient(address, timeout=30)
        try:
            for source, target in predicted_pairs(fitted_model, limit=10):
                remote = client.call({"op": EXPLAIN, "source": source, "target": target})
                assert remote == server.service.submit(EXPLAIN, source, target).result(30)
        finally:
            client.close()


class TestNegotiation:
    """What the server puts on the wire when a response outgrows its
    frame bound (the class name keeps existing test ids stable)."""

    def test_binary_oversized_response_is_an_error_frame_not_a_hangup(
        self, fitted_model, service_dataset
    ):
        service = ExplanationService(
            fitted_model, service_dataset, ServiceConfig(num_workers=1)
        ).start()
        # Pings fit the bound; two explanation results in one batch do not.
        server = ShardServer(service, max_frame_bytes=256)
        address = server.bind("127.0.0.1:0")
        server.start_in_thread()
        try:
            pairs = predicted_pairs(fitted_model, limit=2)
            host, port = address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=30) as conn:
                # The 2-item batch request fits the bound; its
                # 2-explanation response cannot.
                request = {"op": "batch", "items": [[EXPLAIN, s, t] for s, t in pairs]}
                send_raw_frame(conn, frame_raw(encode_binary(request)))
                response = decode_binary(recv_frame_raw(conn))
                assert isinstance(decode_error(response["error"]), FrameTooLargeError)
                # The same socket still carries the next exchange.
                send_raw_frame(conn, frame_raw(encode_binary({"op": "ping"})))
                assert decode_binary(recv_frame_raw(conn))["ok"]["shard_id"] == 0
        finally:
            server.stop()
            service.close(drain=False)


class TestWireTelemetry:
    def test_client_counters_track_both_directions(self, running_server, fitted_model):
        _, address = running_server
        pair = predicted_pairs(fitted_model, limit=1)[0]
        client = RemoteShardClient(address, timeout=30)
        try:
            client.call({"op": EXPLAIN, "source": pair[0], "target": pair[1]})
            raw = client.wire_counters.raw()
            assert raw["frames_sent"] >= 1
            assert raw["frames_received"] >= 1
            assert raw["bytes_sent"] > 0
            assert raw["bytes_received"] > 0
            assert raw["encode_ns"] > 0
            assert raw["decode_ns"] > 0
        finally:
            client.close()

    def test_server_stats_carry_wire_counters(self, running_server, fitted_model):
        server, address = running_server
        pair = predicted_pairs(fitted_model, limit=1)[0]
        client = RemoteShardClient(address, timeout=30)
        try:
            client.call({"op": EXPLAIN, "source": pair[0], "target": pair[1]})
            wire = server.service.stats.raw()[0]["wire"]
            assert wire["frames_received"] >= 1
            assert wire["bytes_received"] > 0
        finally:
            client.close()

    def test_merge_raw_sums_nested_wire_dicts(self):
        first, second = ServiceStats(), ServiceStats()
        first.wire.record_sent(100, 7)
        second.wire.record_sent(50, 3)
        second.wire.record_received(20, 1)
        merged = merge_raw([first.raw(), second.raw()])
        assert merged["wire"]["bytes_sent"] == 150
        assert merged["wire"]["frames_sent"] == 2
        assert merged["wire"]["encode_ns"] == 10
        assert merged["wire"]["bytes_received"] == 20
