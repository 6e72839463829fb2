"""Remote-transport tests.

Three layers of coverage:

* **Framing / codec units** — frame round-trips, oversized-frame
  rejection (both directions), truncation, and exact value / error-type
  round-tripping, all without a service.
* **Wire behaviour over real sockets** — a `ShardServer` on a loopback
  socket (service in-process) proves backpressure and deadline errors
  cross the wire as their own exception types, oversized frames are
  rejected before the body is read, a server dying mid-request surfaces
  as a client error rather than a hang, and stale pooled connections
  reconnect.
* **Process-per-shard integration** — a one-replica
  `ReplicatedLocalCluster` spawns real
  ``python -m repro.service serve`` subprocesses: results are
  bit-identical to one in-process service at shards ∈ {1, 2},
  replay/explain_many preserve order, stats merge across processes,
  ``invalidate`` fans out to every shard, and a killed shard fails its
  pairs while the surviving shard keeps serving.
"""

import socket
import struct
import tempfile
import threading
import time

import pytest

from repro.core import ExEA
from repro.core.explanation import Explanation, MatchedPath, RelationPath
from repro.kg import Triple
from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    VERIFY,
    ClusterClient,
    DeadlineExceededError,
    ExplanationService,
    RemoteShardClient,
    RemoteTransportError,
    ReplicatedLocalCluster,
    ServiceConfig,
    ServiceOverloadedError,
    ShardServer,
    topology_for_endpoints,
)
from repro.service.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosedError,
    FrameTimeoutError,
    FrameTooLargeError,
    ProtocolError,
    decode_binary,
    decode_error,
    decode_value,
    encode_binary,
    encode_binary_value,
    encode_error,
    encode_value,
    frame_raw,
    recv_frame_raw,
    send_raw_frame,
)
from repro.service.transport.protocol import OP_PING
from repro.service.transport.wire import BINARY_MAGIC, BINARY_VERSION


def predicted_pairs(model, limit=20):
    return sorted(model.predict().pairs)[:limit]


def send_payload(sock, payload: dict, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
    """Encode *payload* as one binary frame and write it to *sock*."""
    send_raw_frame(sock, frame_raw(encode_binary(payload), max_frame_bytes))


def recv_payload(sock, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> dict | None:
    """Read and decode one binary frame; ``None`` on a clean EOF."""
    body = recv_frame_raw(sock, max_frame_bytes)
    return None if body is None else decode_binary(body)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        with left, right:
            payload = {"op": "ping", "nested": {"values": [1, 2.5, "x"]}}
            send_payload(left, payload)
            assert recv_payload(right) == payload

    def test_multiple_frames_are_self_delimiting(self):
        left, right = socket.socketpair()
        with left, right:
            for index in range(3):
                send_payload(left, {"index": index})
            for index in range(3):
                assert recv_payload(right) == {"index": index}

    def test_clean_eof_between_frames_returns_none(self):
        left, right = socket.socketpair()
        with right:
            send_payload(left, {"op": "last"})
            left.close()
            assert recv_payload(right) == {"op": "last"}
            assert recv_payload(right) is None

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        with right:
            frame = frame_raw(encode_binary({"op": "ping"}))
            left.sendall(frame[: len(frame) - 2])  # drop the final bytes
            left.close()
            with pytest.raises(ConnectionClosedError):
                recv_payload(right)

    def test_oversized_outgoing_frame_rejected_before_send(self):
        left, right = socket.socketpair()
        with left, right:
            with pytest.raises(FrameTooLargeError):
                send_payload(left, {"blob": "x" * 2048}, max_frame_bytes=1024)

    def test_oversized_incoming_frame_rejected_before_body_read(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(struct.pack(">I", 512 * 1024 * 1024))  # announce 512 MiB
            with pytest.raises(FrameTooLargeError):
                recv_payload(right, max_frame_bytes=1024)

    def test_non_object_payload_rejected(self):
        left, right = socket.socketpair()
        with left, right:
            body = bytes([BINARY_MAGIC, BINARY_VERSION, 0]) + encode_binary_value([1, 2, 3]).data
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError):
                recv_payload(right)


# ----------------------------------------------------------------------
# Value / error codec
# ----------------------------------------------------------------------
def _sample_explanation() -> Explanation:
    t1 = Triple("a", "r1", "b")
    t2 = Triple("x", "r2", "y")
    path1 = RelationPath(source="a", target="b", triples=(t1,))
    path2 = RelationPath(source="x", target="y", triples=(t2,))
    return Explanation(
        source="a",
        target="x",
        matched_paths=[MatchedPath(path1=path1, path2=path2, similarity=0.123456789012345)],
        candidate_triples1={t1, Triple("a", "r3", "c")},
        candidate_triples2={t2},
    )


def _over_the_wire(kind: str, value):
    """*value* encoded as a response frame body and decoded back."""
    return decode_binary(encode_binary({"ok": encode_value(kind, value)}))["ok"]


class TestCodec:
    def test_explanation_roundtrips_equal(self):
        explanation = _sample_explanation()
        assert decode_value(EXPLAIN, _over_the_wire(EXPLAIN, explanation)) == explanation

    def test_confidence_float_is_exact(self):
        value = 0.1 + 0.2  # a double with no short decimal form
        assert decode_value(CONFIDENCE, _over_the_wire(CONFIDENCE, value)) == value

    def test_verify_bool(self):
        assert decode_value(VERIFY, encode_value(VERIFY, True)) is True
        assert decode_value(VERIFY, encode_value(VERIFY, False)) is False

    @pytest.mark.parametrize(
        "error",
        [
            ServiceOverloadedError("queue full"),
            DeadlineExceededError("too late"),
            ValueError("bad kind"),
            FrameTooLargeError("too big"),
        ],
    )
    def test_mapped_errors_roundtrip_as_their_own_type(self, error):
        decoded = decode_error(encode_error(error))
        assert type(decoded) is type(error)
        assert str(error) in str(decoded)

    def test_unmapped_error_becomes_remote_operation_error(self):
        from repro.service import RemoteOperationError

        decoded = decode_error({"type": "SomethingExotic", "message": "boom"})
        assert isinstance(decoded, RemoteOperationError)
        assert decoded.remote_type == "SomethingExotic"


# ----------------------------------------------------------------------
# Wire behaviour against a loopback ShardServer
# ----------------------------------------------------------------------
@pytest.fixture()
def loopback_server(fitted_model, service_dataset):
    """An unstarted service behind a real TCP socket; the test decides when
    (and whether) the scheduler runs, making queue states deterministic."""
    service = ExplanationService(
        fitted_model, service_dataset, ServiceConfig(num_workers=1, queue_capacity=1)
    )
    server = ShardServer(service, shard_id=0, num_shards=1)
    address = server.bind("127.0.0.1:0")
    server.start_in_thread()
    yield service, server, address
    server.stop()
    service.close(drain=False)


class TestWireErrors:
    def test_backpressure_crosses_the_wire(self, loopback_server, fitted_model):
        service, server, address = loopback_server
        first, second = predicted_pairs(fitted_model, limit=2)
        failures = []

        def occupy_queue():
            # Workers never start, so this request parks in the queue and
            # its connection blocks server-side — exactly a saturated shard.
            try:
                RemoteShardClient(address, timeout=30).call(
                    {"op": EXPLAIN, "source": first[0], "target": first[1]}
                )
            except RemoteTransportError:
                pass  # torn down at the end of the test
            except BaseException as error:  # noqa: BLE001
                failures.append(error)

        blocker = threading.Thread(target=occupy_queue, daemon=True)
        blocker.start()
        deadline = time.monotonic() + 10
        while len(service.queue) < 1:
            assert time.monotonic() < deadline, "first request never reached the queue"
            time.sleep(0.005)

        client = RemoteShardClient(address, timeout=10)
        with pytest.raises(ServiceOverloadedError):
            client.call({"op": EXPLAIN, "source": second[0], "target": second[1]})
        client.close()
        server.stop()  # releases the parked connection
        blocker.join(timeout=10)
        assert not failures

    def test_deadline_crosses_the_wire(self, loopback_server, fitted_model):
        service, server, address = loopback_server
        pair = predicted_pairs(fitted_model, limit=1)[0]
        result: list[BaseException] = []

        def expire_in_queue():
            client = RemoteShardClient(address, timeout=30)
            try:
                client.call(
                    {"op": EXPLAIN, "source": pair[0], "target": pair[1], "deadline_ms": 1.0}
                )
            except BaseException as error:  # noqa: BLE001 - asserted below
                result.append(error)
            finally:
                client.close()

        thread = threading.Thread(target=expire_in_queue, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while len(service.queue) < 1:
            assert time.monotonic() < deadline, "request never reached the queue"
            time.sleep(0.005)
        time.sleep(0.05)  # let the 1 ms deadline lapse while nothing serves
        service.start()  # the dispatcher now fails it as expired
        thread.join(timeout=30)
        assert result and isinstance(result[0], DeadlineExceededError)

    def test_oversized_request_rejected_by_server(self, loopback_server):
        _, _, address = loopback_server
        host, port = address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            conn.sendall(struct.pack(">I", 200 * 1024 * 1024))  # announce 200 MiB
            response = recv_payload(conn)
            assert response is not None and "error" in response
            assert isinstance(decode_error(response["error"]), FrameTooLargeError)
            # The poisoned connection is then closed server-side.
            assert recv_payload(conn) is None

    def test_oversized_response_reported_as_error_not_dropped_connection(
        self, fitted_model, service_dataset
    ):
        """A response beyond the frame bound must come back as a
        FrameTooLargeError frame, not a silent disconnect."""
        service = ExplanationService(
            fitted_model, service_dataset, ServiceConfig(num_workers=1)
        ).start()
        # Pings fit the bound; two explanation results in one batch do not.
        server = ShardServer(service, max_frame_bytes=256)
        address = server.bind("127.0.0.1:0")
        server.start_in_thread()
        try:
            pairs = predicted_pairs(fitted_model, limit=2)
            client = RemoteShardClient(address, timeout=30)
            with pytest.raises(FrameTooLargeError):
                # The 2-item batch request fits the bound; its
                # 2-explanation response cannot.
                client.call({"op": "batch", "items": [[EXPLAIN, s, t] for s, t in pairs]})
            # The connection survived; small exchanges still work on it.
            assert client.ping()["shard_id"] == 0
            client.close()
        finally:
            server.stop()
            service.close(drain=False)

    def test_batch_admission_retry_is_bounded_by_deadline(
        self, loopback_server, fitted_model
    ):
        """A batch item that cannot be admitted must give up when its
        deadline lapses instead of spinning on the full queue forever."""
        service, server, _ = loopback_server
        first, second = predicted_pairs(fitted_model, limit=2)
        service.submit(EXPLAIN, *first)  # fills the capacity-1 queue
        start = time.monotonic()
        response = server._handle_batch(
            {"items": [[EXPLAIN, second[0], second[1]]], "deadline_ms": 50.0}
        )
        assert time.monotonic() - start < 5
        (slot,) = response["results"]
        assert isinstance(decode_error(slot["error"]), ServiceOverloadedError)

    def test_batch_admission_retry_bails_out_on_server_stop(
        self, loopback_server, fitted_model
    ):
        service, server, _ = loopback_server
        first, second = predicted_pairs(fitted_model, limit=2)
        service.submit(EXPLAIN, *first)  # fills the capacity-1 queue
        server._stop.set()
        response = server._handle_batch({"items": [[EXPLAIN, second[0], second[1]]]})
        (slot,) = response["results"]
        assert isinstance(decode_error(slot["error"]), ServiceOverloadedError)

    def test_topology_check_refuses_miswired_cluster(self, fitted_model, service_dataset):
        service = ExplanationService(fitted_model, service_dataset, ServiceConfig(num_workers=1))
        server = ShardServer(service, shard_id=1, num_shards=2)  # claims to be shard 1 of 2
        address = server.bind("127.0.0.1:0")
        server.start_in_thread()
        try:
            with pytest.raises(RemoteTransportError, match="miswired"):
                ClusterClient(topology_for_endpoints([[address]]))  # expects shard 0 of 1
        finally:
            server.stop()
            service.close(drain=False)

    def test_topology_check_refuses_shards_serving_different_datasets(
        self, fitted_model, service_dataset
    ):
        """Matching shard ids are not enough: shards must agree on WHAT they serve."""
        from repro.kg import EADataset

        renamed = EADataset(
            service_dataset.kg1,
            service_dataset.kg2,
            service_dataset.train_alignment,
            service_dataset.test_alignment,
            name="OTHER",
        )
        servers = []
        services = []
        addresses = []
        for shard_id, dataset in enumerate((service_dataset, renamed)):
            service = ExplanationService(fitted_model, dataset, ServiceConfig(num_workers=1))
            server = ShardServer(service, shard_id=shard_id, num_shards=2)
            addresses.append(server.bind("127.0.0.1:0"))
            server.start_in_thread()
            services.append(service)
            servers.append(server)
        try:
            with pytest.raises(RemoteTransportError, match="disagree"):
                ClusterClient(topology_for_endpoints([[address] for address in addresses]))
        finally:
            for server, service in zip(servers, services):
                server.stop()
                service.close(drain=False)

    def test_cli_rejects_unknown_subcommand(self, capsys):
        from repro.service.__main__ import main

        assert main(["sevre"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err
        assert main(["connect"]) == 2
        assert "expected one of replay, serve, cluster, metrics, doctor" in capsys.readouterr().err

    def test_unix_socket_server_restarts_on_same_path(
        self, fitted_model, service_dataset, tmp_path
    ):
        """A stale socket file from a previous server must not block a restart."""
        listen = f"unix:{tmp_path / 'shard.sock'}"
        service = ExplanationService(fitted_model, service_dataset, ServiceConfig(num_workers=1))
        for _ in range(2):  # second iteration rebinds the same path
            server = ShardServer(service)
            address = server.bind(listen)
            server.start_in_thread()
            client = RemoteShardClient(address, timeout=10)
            assert client.ping()["shard_id"] == 0
            client.close()
            server.stop()
        # stop() also removes the socket node it owned.
        assert not (tmp_path / "shard.sock").exists()
        service.close(drain=False)

    def test_unix_socket_bind_refuses_to_hijack_a_live_server(
        self, fitted_model, service_dataset, tmp_path
    ):
        """Stale-node cleanup must not unlink a socket a live server answers on."""
        listen = f"unix:{tmp_path / 'live.sock'}"
        service = ExplanationService(fitted_model, service_dataset, ServiceConfig(num_workers=1))
        first = ShardServer(service)
        address = first.bind(listen)
        first.start_in_thread()
        try:
            with pytest.raises(OSError, match="live server"):
                ShardServer(service).bind(listen)
            # The live server kept its socket node and keeps serving.
            client = RemoteShardClient(address, timeout=10)
            assert client.ping()["shard_id"] == 0
            client.close()
        finally:
            first.stop()
            service.close(drain=False)


class TestConnectionFailures:
    def test_mid_request_server_death_is_an_error_not_a_hang(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def accept_then_die():
            conn, _ = listener.accept()
            recv_frame_raw(conn)  # read the request in full ...
            conn.close()  # ... and die without replying

        killer = threading.Thread(target=accept_then_die, daemon=True)
        killer.start()
        client = RemoteShardClient(f"{host}:{port}", timeout=10)
        start = time.monotonic()
        with pytest.raises(RemoteTransportError):
            client.call({"op": OP_PING})
        assert time.monotonic() - start < 10  # surfaced, not hung
        killer.join(timeout=5)
        listener.close()
        client.close()

    def test_short_batch_response_is_a_protocol_error_not_silent_nones(self):
        """A server answering N batch items with fewer results must raise,
        not truncate into None results."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        host, port = listener.getsockname()

        def answer(conn):
            # The control plane's probe pings get a shard-0-of-1 identity;
            # any other request (the batch) gets 1 slot for 2 items.  A
            # frame this fake cannot decode ends the connection.
            with conn:
                try:
                    while (request := recv_payload(conn)) is not None:
                        if request.get("op") == OP_PING:
                            send_payload(conn, {"ok": {"shard_id": 0, "num_shards": 1}})
                        else:
                            send_payload(conn, {"results": [{"ok": True}]})
                except (OSError, ProtocolError):
                    pass

        def accept_all():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                threading.Thread(target=answer, args=(conn,), daemon=True).start()

        responder = threading.Thread(target=accept_all, daemon=True)
        responder.start()
        client = ClusterClient(
            topology_for_endpoints([[f"{host}:{port}"]]),
            timeout=10,
            check_topology=False,
        )
        with pytest.raises(ProtocolError, match="batch"):
            client.replay([(VERIFY, "a", "b"), (VERIFY, "c", "d")])
        client.close()
        listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        listener.close()
        responder.join(timeout=10)

    def test_connection_refused_is_a_transport_error(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        _, free_port = probe.getsockname()
        probe.close()  # nothing listens here any more
        with pytest.raises(RemoteTransportError):
            RemoteShardClient(f"127.0.0.1:{free_port}", timeout=5).call({"op": OP_PING})

    def test_stale_pooled_connection_reconnects(self, loopback_server):
        _, _, address = loopback_server
        client = RemoteShardClient(address, timeout=10)
        assert client.ping()["shard_id"] == 0
        # Sever the pooled socket under the client; the next call must
        # notice the stale connection, re-dial and succeed.
        assert len(client._pool) == 1
        client._pool[0].close()
        assert client.ping()["shard_id"] == 0
        client.close()

    def test_server_killed_pooled_socket_retries_on_fresh_dial(self):
        """A pooled socket the SERVER closed between two requests must be
        detected as stale and the request retried once on a fresh dial —
        the explicit unit for what the kill-shard test only exercises
        implicitly."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        host, port = listener.getsockname()
        connections_seen = []
        requests_answered = []

        def serve_one_then_hang_up():
            # Each accepted connection answers exactly one frame and is
            # then closed server-side — every pooled socket goes stale
            # after its first use (an idle-connection reaper in miniature).
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                connections_seen.append(conn)
                with conn:
                    request = recv_payload(conn)
                    if request is None:
                        continue
                    requests_answered.append(request)
                    send_payload(conn, {"ok": {"shard_id": 0, "echo": request.get("n")}})

        server = threading.Thread(target=serve_one_then_hang_up, daemon=True)
        server.start()
        client = RemoteShardClient(f"{host}:{port}", timeout=10)
        first = client.call({"op": OP_PING, "n": 1})
        assert first["echo"] == 1
        assert len(client._pool) == 1  # the (already dead) socket went back
        # The second request checks out the stale socket, fails, and must
        # transparently retry on a fresh connection — not surface an error.
        second = client.call({"op": OP_PING, "n": 2})
        assert second["echo"] == 2
        assert len(connections_seen) == 2  # one re-dial, no more
        assert [request["n"] for request in requests_answered] == [1, 2]
        client.close()
        # close() alone leaves the server thread blocked in accept();
        # shutdown() wakes it with an OSError.
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        server.join(timeout=10)
        assert not server.is_alive()

    def test_timeout_raises_without_retrying_the_request(self):
        """A slow server means timeout, not retry: re-sending would double
        its work and the caller's wait."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        requests_seen = []
        release = threading.Event()

        def accept_and_stall():
            conn, _ = listener.accept()
            requests_seen.append(recv_payload(conn))
            release.wait(timeout=30)  # never answer within the client timeout
            conn.close()

        staller = threading.Thread(target=accept_and_stall, daemon=True)
        staller.start()
        client = RemoteShardClient(f"{host}:{port}", timeout=10)
        start = time.monotonic()
        try:
            with pytest.raises(FrameTimeoutError):
                client.call({"op": OP_PING}, timeout=0.5)
            elapsed = time.monotonic() - start
        finally:
            release.set()
        assert elapsed < 2.0  # one timeout's wait, not two (no re-send)
        staller.join(timeout=10)
        assert len(requests_seen) == 1  # the request was never re-sent
        listener.close()
        client.close()

    def test_local_oversized_request_spares_the_pooled_connection(self, loopback_server):
        """An oversized request must fail before touching any socket."""
        _, _, address = loopback_server
        client = RemoteShardClient(address, timeout=10, max_frame_bytes=512)
        assert client.ping()["shard_id"] == 0
        assert len(client._pool) == 1
        pooled = client._pool[0]
        with pytest.raises(FrameTooLargeError):
            client.call({"op": OP_PING, "blob": "x" * 2048})
        # The pooled connection was neither consumed nor replaced ...
        assert client._pool == [pooled]
        # ... and still works.
        assert client.ping()["shard_id"] == 0
        client.close()


# ----------------------------------------------------------------------
# Process-per-shard integration (real subprocesses)
# ----------------------------------------------------------------------
class TestRemoteCluster:
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_bit_identical_to_inprocess_sharded_service(
        self, fitted_model, service_dataset, num_shards
    ):
        pairs = predicted_pairs(fitted_model, limit=10)
        # Results do not depend on the shard count: one in-process
        # service is the reference for every cluster size.
        config = ServiceConfig(num_workers=2)
        with ExplanationService(fitted_model, service_dataset, config) as local:
            expected_explain = {}
            expected_confidence = {}
            expected_verify = {}
            for pair in pairs:
                expected_explain[pair] = local.submit(EXPLAIN, *pair).result(60)
                expected_confidence[pair] = local.submit(CONFIDENCE, *pair).result(60)
                expected_verify[pair] = local.submit(VERIFY, *pair).result(60)

        with ReplicatedLocalCluster(
            fitted_model,
            service_dataset,
            num_shards=num_shards,
            num_replicas=1,
            service_config=config,
        ) as cluster:
            client = cluster.client
            for pair in pairs:
                assert client.explain(*pair) == expected_explain[pair]
                assert client.confidence(*pair) == expected_confidence[pair]
                assert client.verify(*pair) == expected_verify[pair]
            # Routing agrees with the in-process router by construction.
            assert all(0 <= client.shard_of(*pair) < num_shards for pair in pairs)

    def test_replay_and_explain_many_preserve_order(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=8)
        direct = ExEA(fitted_model, service_dataset)
        reference = direct.reference_alignment()
        workload = [(EXPLAIN, *pair) for pair in pairs] + [
            (CONFIDENCE, *pair) for pair in reversed(pairs)
        ]
        with ReplicatedLocalCluster(
            fitted_model, service_dataset, num_shards=2, num_replicas=1
        ) as cluster:
            results = cluster.client.replay(workload)
            assert len(results) == len(workload)
            for (kind, source, target), value in zip(workload, results):
                if kind == EXPLAIN:
                    assert value == direct.explain(source, target)
                else:
                    assert value == direct.repairer.confidence(source, target, reference)
            explained = cluster.client.explain_many(pairs)
            assert list(explained) == pairs  # insertion order preserved
            snapshot = cluster.client.stats_snapshot()
            assert snapshot["num_shards"] == 2
            assert len(snapshot["per_shard"]) == 2
            assert snapshot["overall"]["completed"] == sum(
                row["completed"] for row in snapshot["per_shard"]
            )

    def test_invalidate_fans_out_to_every_shard(self, fitted_model, service_dataset):
        pairs = predicted_pairs(fitted_model, limit=8)
        with ReplicatedLocalCluster(
            fitted_model, service_dataset, num_shards=2, num_replicas=1
        ) as cluster:
            client = cluster.client
            for pair in pairs:
                client.confidence(*pair)
            before = client.stats_snapshot()["overall"]["cache_misses"]
            for pair in pairs:
                client.confidence(*pair)  # all hits now
            assert client.stats_snapshot()["overall"]["cache_misses"] == before

            reports = client.invalidate()
            assert len(reports) == 2
            assert sum(report["cleared"] for report in reports) > 0
            # Remote invalidations are visible in the telemetry, like
            # token-driven wholesale drops.
            snapshot = client.stats_snapshot()
            assert snapshot["overall"]["cache_invalidations"] == sum(
                1 for report in reports if report["cleared"]
            )

            for pair in pairs:
                client.confidence(*pair)  # every shard must recompute
            after = client.stats_snapshot()["overall"]["cache_misses"]
            assert after == before + len(pairs)

    def test_killed_shard_fails_its_pairs_but_not_the_others(
        self, fitted_model, service_dataset
    ):
        pairs = predicted_pairs(fitted_model, limit=20)
        with ReplicatedLocalCluster(
            fitted_model, service_dataset, num_shards=2, num_replicas=1
        ) as cluster:
            client = cluster.client
            by_shard = client.router.partition(pairs)
            assert set(by_shard) == {0, 1}, "test pairs routed too unevenly"
            victim_pair = by_shard[0][0]
            survivor_pair = by_shard[1][0]
            assert client.explain(*victim_pair) is not None  # warm the connection pool

            cluster.kill_shard(0)
            start = time.monotonic()
            with pytest.raises(RemoteTransportError):
                client.explain(*victim_pair)
            assert time.monotonic() - start < 30  # an error, not a hang
            # The surviving shard process keeps serving its partition.
            assert client.explain(*survivor_pair) is not None

    def test_failed_snapshot_write_leaves_no_temp_dir(
        self, fitted_model, service_dataset, tmp_path, monkeypatch
    ):
        """A snapshot that cannot be pickled must not leak its work dir."""

        class Unpicklable:
            def __reduce__(self):
                raise TypeError("refuses to pickle")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cluster = ReplicatedLocalCluster(
            fitted_model,
            service_dataset,
            num_shards=1,
            num_replicas=1,
            exea_config=Unpicklable(),
        )
        with pytest.raises(TypeError, match="refuses to pickle"):
            cluster.start()
        assert list(tmp_path.iterdir()) == []
