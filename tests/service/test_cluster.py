"""Cluster control-plane tests.

Four layers of coverage:

* **Topology units** — JSON/TOML parsing, validation failures (duplicate
  endpoints, empty shards, bad weights, out-of-order shard ids).
* **Failure detector** — a `ClusterManager` probing real loopback
  `ShardServer`s: consecutive-miss marking, data-path failure reports,
  reconnect after a restart, routing-table versioning.
* **Load-aware routing** — `replica_score` units plus an end-to-end
  load-shift test against a deliberately slowed replica.
* **Replicated cluster integration** — `ReplicatedLocalCluster` spawns
  real ``serve`` subprocesses at shards=2 x replicas=2: killing one
  replica mid-replay (via ``faultlib.ChaosController``) completes with
  **zero failed requests** and results bit-identical to one in-process
  service; the stats snapshot merges every process's counters exactly;
  ``invalidate`` fans out to every replica of every shard; the
  ``cluster`` CLI subcommand replays against a topology file.

Fault injection and the shared workload helpers live in ``faultlib``
(the seeded fleet-chaos suite in ``test_fleet.py`` builds on the same
primitives).
"""

import json
import threading
import time

import pytest

from faultlib import ChaosController, SlowShardServer, predicted_pairs
from repro.core import ExEA
from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    ClusterClient,
    ClusterManager,
    ClusterTopology,
    ExEAClient,
    ExplanationService,
    RemoteTransportError,
    ReplicaSpec,
    ReplicatedLocalCluster,
    ServiceConfig,
    ShardServer,
    TopologyError,
    load_topology,
    parse_topology,
)
from repro.service.cluster import replica_score, topology_for_endpoints
from repro.service.cluster.manager import ReplicaRoute


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
class TestTopology:
    def test_parse_minimal_json_document(self):
        topology = parse_topology(
            {
                "shards": [
                    {"replicas": ["127.0.0.1:7401", {"endpoint": "127.0.0.1:7411", "weight": 2.0}]},
                    {"replicas": ["127.0.0.1:7402"]},
                ]
            }
        )
        assert topology.num_shards == 2
        assert topology.num_replicas == 2
        assert topology.shards[0][1].weight == 2.0
        assert topology.endpoints() == ["127.0.0.1:7401", "127.0.0.1:7411", "127.0.0.1:7402"]
        assert topology.replica_of("127.0.0.1:7411") == (0, 1)

    def test_bare_replica_arrays_are_accepted(self):
        topology = parse_topology({"shards": [["127.0.0.1:1", "127.0.0.1:2"]]})
        assert topology.num_shards == 1 and topology.num_replicas == 2

    @pytest.mark.parametrize(
        "document",
        [
            {},  # no shards at all
            {"shards": []},  # empty
            {"shards": [{"replicas": []}]},  # shard with no replicas
            {"shards": [{"replicas": ["a:1", "a:1"]}]},  # duplicate endpoint in shard
            {"shards": [["a:1"], ["a:1"]]},  # duplicate endpoint across shards
            {"shards": [{"replicas": [{"endpoint": "a:1", "weight": 0}]}]},  # bad weight
            {"shards": [{"replicas": [{"endpoint": "a:1", "weight": -1.0}]}]},
            {"shards": [{"replicas": [{"weight": 1.0}]}]},  # missing endpoint
            {"shards": [{"shard": 1, "replicas": ["a:1"]}]},  # declared id != position
            {"shards": [{"replicas": ["a:1"], "extra": 1}]},  # unknown key
            {"typo": []},  # unknown top-level key
            {"shards": [{"replicas": [42]}]},  # replica is neither str nor table
        ],
    )
    def test_malformed_documents_are_refused(self, document):
        with pytest.raises(TopologyError):
            parse_topology(document)

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({"shards": [["127.0.0.1:7401", "127.0.0.1:7411"]]}))
        assert load_topology(path).num_replicas == 2

    def test_load_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "cluster.toml"
        path.write_text(
            "[[shards]]\n"
            'replicas = ["127.0.0.1:7401", {endpoint = "127.0.0.1:7411", weight = 2.0}]\n'
            "[[shards]]\n"
            'replicas = ["127.0.0.1:7402"]\n'
        )
        topology = load_topology(path)
        assert topology.num_shards == 2
        assert topology.shards[0][1].weight == 2.0

    def test_load_invalid_json_reports_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(TopologyError, match="broken.json"):
            load_topology(path)

    def test_to_dict_roundtrips(self):
        topology = topology_for_endpoints([["a:1", "b:2"], ["c:3"]])
        assert parse_topology(topology.to_dict()) == topology

    def test_direct_construction_validates_too(self):
        with pytest.raises(TopologyError):
            ClusterTopology(shards=((ReplicaSpec("a:1"), ReplicaSpec("a:1")),))


# ----------------------------------------------------------------------
# Routing score
# ----------------------------------------------------------------------
def _route(**overrides) -> ReplicaRoute:
    base = dict(
        endpoint="x:1", shard_id=0, replica_index=0, weight=1.0, healthy=True,
        queue_depth=0, p95_ms=0.0,
    )
    base.update(overrides)
    return ReplicaRoute(**base)


class TestReplicaScore:
    def test_idle_replica_beats_loaded_replica(self):
        assert replica_score(_route(), inflight=0, ema_ms=0.0) < replica_score(
            _route(), inflight=3, ema_ms=0.0
        )

    def test_fast_replica_beats_slow_replica(self):
        assert replica_score(_route(), inflight=0, ema_ms=1.0) < replica_score(
            _route(), inflight=0, ema_ms=50.0
        )

    def test_server_queue_depth_counts_as_congestion(self):
        assert replica_score(_route(queue_depth=0), 0, 0.0) < replica_score(
            _route(queue_depth=8), 0, 0.0
        )

    def test_weight_scales_the_score_down(self):
        heavy = _route(weight=4.0)
        light = _route(weight=1.0)
        assert replica_score(heavy, inflight=1, ema_ms=5.0) < replica_score(
            light, inflight=1, ema_ms=5.0
        )


# ----------------------------------------------------------------------
# In-process replica fixtures (real sockets, no subprocesses)
# ----------------------------------------------------------------------
@pytest.fixture()
def replica_pair(fitted_model, service_dataset):
    """Two started loopback servers replicating ONE shard (0 of 1)."""
    services, servers, addresses = [], [], []
    for _ in range(2):
        service = ExplanationService(
            fitted_model, service_dataset, ServiceConfig(num_workers=1)
        ).start()
        server = ShardServer(service, shard_id=0, num_shards=1)
        addresses.append(server.bind("127.0.0.1:0"))
        server.start_in_thread()
        services.append(service)
        servers.append(server)
    yield servers, addresses
    for server, service in zip(servers, services):
        server.stop()
        service.close(drain=False)


def _manual_manager(topology, **overrides):
    """A manager probed manually (no thread): deterministic detector tests."""
    settings = dict(probe_interval=60.0, miss_threshold=2, backoff_base=0.0, stats_every=1)
    settings.update(overrides)
    return ClusterManager(topology, **settings)


class TestClusterManager:
    def test_probe_marks_replicas_up_and_publishes_load(self, replica_pair):
        _, addresses = replica_pair
        manager = _manual_manager(topology_for_endpoints([addresses]))
        try:
            table = manager.probe_once()
            assert [route.healthy for route in table.replicas(0)] == [True, True]
            assert all(route.queue_depth == 0 for route in table.replicas(0))
            assert table.version > 0
        finally:
            manager.stop()

    def test_consecutive_misses_mark_a_replica_down_then_reconnect(self, replica_pair):
        servers, addresses = replica_pair
        manager = _manual_manager(topology_for_endpoints([addresses]), miss_threshold=2)
        try:
            manager.probe_once()
            victim_address = addresses[0]
            servers[0].stop()
            table = manager.probe_once()  # miss 1 of 2: still in rotation
            assert table.route_of(victim_address).healthy
            table = manager.probe_once()  # miss 2 of 2: down
            assert not table.route_of(victim_address).healthy
            assert table.route_of(addresses[1]).healthy

            # Restart on the same port; the next probe brings it back.
            restarted = ShardServer(servers[0].service, shard_id=0, num_shards=1)
            restarted.bind(victim_address)
            restarted.start_in_thread()
            try:
                deadline = time.monotonic() + 10
                while not manager.probe_once().route_of(victim_address).healthy:
                    assert time.monotonic() < deadline, "replica never rejoined"
                    time.sleep(0.01)
            finally:
                restarted.stop()
        finally:
            manager.stop()

    def test_report_failure_short_circuits_detection(self, replica_pair):
        _, addresses = replica_pair
        manager = _manual_manager(topology_for_endpoints([addresses]), miss_threshold=3)
        try:
            manager.probe_once()
            before = manager.table().version
            manager.report_failure(addresses[0], RemoteTransportError("died mid-request"))
            table = manager.table()
            assert not table.route_of(addresses[0]).healthy
            assert table.route_of(addresses[1]).healthy
            assert table.version > before
            snapshot = manager.health_snapshot()
            row = next(r for r in snapshot["replicas"] if r["endpoint"] == addresses[0])
            assert row["last_error"] == "died mid-request"
        finally:
            manager.stop()


class TestClusterClientFailover:
    def test_request_fails_over_when_a_replica_dies(
        self, replica_pair, fitted_model
    ):
        servers, addresses = replica_pair
        topology = topology_for_endpoints([addresses])
        manager = _manual_manager(topology)
        pair = predicted_pairs(fitted_model, limit=1)[0]
        with ClusterClient(topology, manager=manager) as client:
            assert client.explain(*pair) is not None
            servers[0].stop()  # both replicas might be pooled; kill replica 0
            # Every subsequent read must succeed regardless of routing choice.
            for _ in range(6):
                assert client.explain(*pair) is not None
            snapshot = client.routing_snapshot()
            by_endpoint = {row["endpoint"]: row for row in snapshot["replicas"]}
            assert by_endpoint[addresses[1]]["routed"] >= 1
            # The dead replica is out of the table once it failed a request.
            if by_endpoint[addresses[0]]["failures"]:
                assert not by_endpoint[addresses[0]]["healthy"]
        manager.stop()

    def test_all_replicas_dead_surfaces_an_error_not_a_hang(
        self, replica_pair, fitted_model
    ):
        servers, addresses = replica_pair
        topology = topology_for_endpoints([addresses])
        manager = _manual_manager(topology)
        pair = predicted_pairs(fitted_model, limit=1)[0]
        with ClusterClient(topology, manager=manager) as client:
            for server in servers:
                server.stop()
            start = time.monotonic()
            with pytest.raises(RemoteTransportError):
                client.explain(*pair)
            assert time.monotonic() - start < 30
        manager.stop()

    def test_load_shifts_away_from_a_slow_replica(
        self, fitted_model, service_dataset
    ):
        """With one deliberately slowed replica (faultlib's injected-latency
        server), routing must concentrate traffic on its healthy peer
        (the acceptance-criteria scenario)."""
        service = ExplanationService(
            fitted_model, service_dataset, ServiceConfig(num_workers=1)
        ).start()
        fast = ShardServer(service, shard_id=0, num_shards=1)
        slow = SlowShardServer(service, shard_id=0, num_shards=1)
        fast_address = fast.bind("127.0.0.1:0")
        slow_address = slow.bind("127.0.0.1:0")
        fast.start_in_thread()
        slow.start_in_thread()
        topology = topology_for_endpoints([[fast_address, slow_address]])
        manager = _manual_manager(topology)
        try:
            with ClusterClient(topology, manager=manager) as client:
                pairs = predicted_pairs(fitted_model, limit=10)
                for _ in range(4):
                    for pair in pairs:
                        client.verify(*pair)
                by_endpoint = {
                    row["endpoint"]: row
                    for row in client.routing_snapshot()["replicas"]
                }
                fast_routed = by_endpoint[fast_address]["routed"]
                slow_routed = by_endpoint[slow_address]["routed"]
                assert fast_routed + slow_routed == 4 * len(pairs)
                # The healthy (fast) peer must carry the clear majority.
                assert fast_routed > 3 * slow_routed, (fast_routed, slow_routed)
        finally:
            manager.stop()
            fast.stop()
            slow.stop()
            service.close(drain=False)

    def test_connecting_to_a_degraded_cluster_succeeds(
        self, replica_pair, fitted_model
    ):
        """A dead replica must not refuse the connection while its peer
        covers the shard — surviving that is what replication is for.
        The dead replica starts marked down in the routing table."""
        servers, addresses = replica_pair
        servers[0].stop()  # replica 0 is already dead at connect time
        topology = topology_for_endpoints([addresses])
        manager = _manual_manager(topology)
        pair = predicted_pairs(fitted_model, limit=1)[0]
        with ClusterClient(topology, manager=manager) as client:
            assert not manager.table().route_of(addresses[0]).healthy
            assert client.explain(*pair) is not None
        manager.stop()

    def test_connecting_with_a_whole_shard_down_is_refused(self, replica_pair):
        servers, addresses = replica_pair
        for server in servers:
            server.stop()
        topology = topology_for_endpoints([addresses])
        with pytest.raises(RemoteTransportError, match="no replica of shard 0"):
            ClusterClient(topology, manager=_manual_manager(topology))

    def test_topology_check_refuses_a_replica_claiming_the_wrong_shard(
        self, fitted_model, service_dataset
    ):
        service = ExplanationService(fitted_model, service_dataset, ServiceConfig(num_workers=1))
        server = ShardServer(service, shard_id=1, num_shards=2)  # claims shard 1
        address = server.bind("127.0.0.1:0")
        server.start_in_thread()
        try:
            topology = topology_for_endpoints([[address]])  # placed as shard 0 of 1
            with pytest.raises(RemoteTransportError, match="miswired"):
                ClusterClient(topology, manager=_manual_manager(topology))
        finally:
            server.stop()
            service.close(drain=False)


class TestFailoverSemantics:
    """Which failures fail over (replica death, backpressure) and which
    must not (request-shaped errors that would fail identically anywhere)."""

    def test_batch_backpressure_fails_over_to_the_peer_replica(self):
        """A batch answered with a per-item overload slot must be re-sent
        to the shard's other replica, not abort the replay."""
        import socket as socket_module

        from repro.service import ServiceOverloadedError as Overloaded
        from repro.service.transport import (
            decode_binary,
            encode_binary,
            encode_error,
            frame_raw,
            recv_frame_raw,
            send_raw_frame,
        )

        def fake_replica(handler):
            listener = socket_module.socket(socket_module.AF_INET, socket_module.SOCK_STREAM)
            listener.bind(("127.0.0.1", 0))
            listener.listen(4)

            def serve_connection(conn):
                with conn:
                    while True:
                        try:
                            body = recv_frame_raw(conn)
                        except Exception:
                            return
                        if body is None:
                            return
                        response = handler(decode_binary(body))
                        send_raw_frame(conn, frame_raw(encode_binary(response)))

            def serve():
                # One thread per connection: pooled probe/data sockets stay
                # open concurrently, exactly like the real ShardServer.
                while True:
                    try:
                        conn, _ = listener.accept()
                    except OSError:
                        return
                    threading.Thread(
                        target=serve_connection, args=(conn,), daemon=True
                    ).start()

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            host, port = listener.getsockname()
            return listener, f"{host}:{port}"

        overloaded_batches = []

        def overloaded_handler(request):
            if request.get("op") == "batch":
                overloaded_batches.append(request)
                return {
                    "results": [
                        {"error": encode_error(Overloaded("queue full"))}
                        for _ in request["items"]
                    ]
                }
            return {"ok": {"shard_id": 0}}

        def healthy_handler(request):
            if request.get("op") == "batch":
                return {"results": [{"ok": True} for _ in request["items"]]}
            return {"ok": {"shard_id": 0}}

        overloaded_listener, overloaded_address = fake_replica(overloaded_handler)
        healthy_listener, healthy_address = fake_replica(healthy_handler)
        topology = topology_for_endpoints([[overloaded_address, healthy_address]])
        manager = _manual_manager(topology)
        client = ClusterClient(topology, manager=manager, check_topology=False)
        try:
            # Drive until the overloaded replica has been tried at least
            # once (selection is load-scored, so the first pick may
            # legitimately be the healthy peer).
            for _ in range(6):
                results = client.replay([("verify", "a", "b"), ("verify", "c", "d")])
                assert results == [True, True]
                if overloaded_batches:
                    break
            assert overloaded_batches, "the overloaded replica was never routed to"
            by_endpoint = {
                row["endpoint"]: row for row in client.routing_snapshot()["replicas"]
            }
            assert by_endpoint[healthy_address]["routed"] >= 1
            assert by_endpoint[overloaded_address]["failures"] >= 1
            # Backpressure is not replica death: still in the table.
            assert by_endpoint[overloaded_address]["healthy"]
        finally:
            client.close()
            manager.stop()
            overloaded_listener.close()
            healthy_listener.close()

    def test_request_shaped_errors_do_not_evict_replicas(
        self, replica_pair, fitted_model
    ):
        """An oversized request fails the same on every replica: it must
        raise without failover and without poisoning the routing table."""
        from repro.service.transport import FrameTooLargeError

        _, addresses = replica_pair
        topology = topology_for_endpoints([addresses])
        manager = _manual_manager(topology)
        with ClusterClient(topology, manager=manager, max_frame_bytes=512) as client:
            with pytest.raises(FrameTooLargeError):
                client.explain("x" * 2048, "y")
            table = manager.table()
            assert all(route.healthy for route in table.replicas(0))
            assert all(
                row["failures"] <= 1 and row["healthy"]
                for row in client.routing_snapshot()["replicas"]
            )
        manager.stop()


# ----------------------------------------------------------------------
# Replicated cluster integration (real subprocesses)
# ----------------------------------------------------------------------
class TestReplicatedCluster:
    def test_kill_one_replica_mid_replay_zero_failed_bit_identical(
        self, fitted_model, service_dataset
    ):
        """The acceptance bar: shards=2 x replicas=2 real subprocesses; one
        replica is SIGKILLed while a replay is in flight; the replay
        completes with zero failed requests and every result equals the
        in-process service's."""
        from repro.datasets import replay_workload, shard_workload

        pairs = predicted_pairs(fitted_model, limit=16)
        workload = replay_workload(
            pairs, 240, seed=11, kinds=(EXPLAIN, CONFIDENCE)
        )
        # cache_capacity=0 keeps every request computing, so the kill
        # reliably lands while work is still in flight.
        config = ServiceConfig(num_workers=2, cache_capacity=0)

        with ExplanationService(fitted_model, service_dataset, config) as local:
            expected = ExEAClient(local).replay(workload, timeout=120)

        with ReplicatedLocalCluster(
            fitted_model,
            service_dataset,
            num_shards=2,
            num_replicas=2,
            service_config=config,
            probe_interval=0.1,
        ) as cluster:
            client = cluster.client
            slices = [part for part in shard_workload(workload, 4) if part]
            results: list = [None] * len(slices)
            errors: list = []

            def run(index: int, part) -> None:
                try:
                    results[index] = client.replay(part, timeout=120)
                except BaseException as error:  # noqa: BLE001 - asserted below
                    errors.append(error)

            threads = [
                threading.Thread(target=run, args=(index, part), daemon=True)
                for index, part in enumerate(slices)
            ]
            for thread in threads:
                thread.start()
            # Kill one replica as soon as any traffic has been routed.
            chaos = ChaosController(cluster)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                snapshot = client.routing_snapshot()
                if any(row["routed"] or row["inflight"] for row in snapshot["replicas"]):
                    break
                time.sleep(0.002)
            chaos.kill(0, 0)
            for thread in threads:
                thread.join(timeout=180)
            assert not errors, errors  # zero failed requests

            # Stitch the round-robin slices back into submission order and
            # compare bit-identically against the in-process service.
            stitched: list = [None] * len(workload)
            for slice_index, part in enumerate(slices):
                for position in range(len(part)):
                    stitched[position * len(slices) + slice_index] = results[slice_index][position]
            assert stitched == expected

            # The dead replica leaves the routing table; its peer serves on.
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                table = cluster.manager.table()
                if not table.replicas(0)[0].healthy:
                    break
                time.sleep(0.02)
            assert not cluster.manager.table().replicas(0)[0].healthy
            # A pair of the victim's shard is still served — by the peer —
            # and still bit-identically.
            shard0_explains = {
                (source, target): value
                for (kind, source, target), value in zip(workload, expected)
                if kind == EXPLAIN and client.shard_of(source, target) == 0
            }
            pair, expected_value = next(iter(shard0_explains.items()))
            assert client.explain(*pair) == expected_value

    def test_invalidate_fans_out_to_every_replica_of_every_shard(
        self, fitted_model, service_dataset
    ):
        pairs = predicted_pairs(fitted_model, limit=8)
        with ReplicatedLocalCluster(
            fitted_model, service_dataset, num_shards=2, num_replicas=2, probe_interval=0.1
        ) as cluster:
            client = cluster.client
            # Warm every replica's cache: replicas serve disjoint requests,
            # so route the same pairs repeatedly until both replicas of
            # each shard have answered at least once.
            for _ in range(4):
                for pair in pairs:
                    client.confidence(*pair)
            reports = client.invalidate()
            assert len(reports) == 4  # 2 shards x 2 replicas
            assert all("token" in report for report in reports)
            assert sum(report["cleared"] for report in reports) > 0

    def test_stats_snapshot_merges_and_reports_imbalance(
        self, fitted_model, service_dataset
    ):
        pairs = predicted_pairs(fitted_model, limit=10)
        with ReplicatedLocalCluster(
            fitted_model, service_dataset, num_shards=2, num_replicas=2, probe_interval=0.2
        ) as cluster:
            client = cluster.client
            client.replay([(EXPLAIN, *pair) for pair in pairs])
            snapshot = client.stats_snapshot()
            assert snapshot["num_shards"] == 2
            assert snapshot["num_replicas"] == 2
            assert len(snapshot["per_shard"]) == 2
            assert len(snapshot["per_replica"]) == 2
            # Counters merge exactly: overall is the per-shard sum.
            overall = snapshot["overall"]
            for key in ("submitted", "completed", "cache_hits", "cache_misses", "num_batches"):
                assert overall[key] == sum(row[key] for row in snapshot["per_shard"])
            assert overall["completed"] == len(pairs)
            imbalance = overall["shard_imbalance"]
            submitted = [row["submitted"] for row in snapshot["per_shard"]]
            assert imbalance["request_share"]["max"] == max(submitted)
            assert imbalance["request_share"]["mean"] == pytest.approx(
                sum(submitted) / len(submitted)
            )
            assert imbalance["request_share"]["max_over_mean"] >= 1.0
            # Pair counts partition the reference alignment exactly.
            pair_counts = snapshot["pairs_per_shard"]
            assert imbalance["pair_count"]["max"] == max(pair_counts)
            assert sum(pair_counts) == len(
                ExEA(fitted_model, service_dataset).reference_alignment().pairs
            )
            assert snapshot["unreachable"] == []

    def test_cluster_cli_replays_against_a_topology_file(
        self, fitted_model, service_dataset, tmp_path, capsys
    ):
        from repro.service.__main__ import main

        with ReplicatedLocalCluster(
            fitted_model, service_dataset, num_shards=2, num_replicas=2, probe_interval=0.2
        ) as cluster:
            topology_path = tmp_path / "cluster.json"
            topology_path.write_text(json.dumps(cluster.topology.to_dict()))
            stats_path = tmp_path / "stats.json"
            assert (
                main(
                    [
                        "cluster",
                        "--topology",
                        str(topology_path),
                        "--requests",
                        "24",
                        "--clients",
                        "2",
                        "--mix",
                        "mixed",
                        "--stats-json",
                        str(stats_path),
                    ]
                )
                == 0
            )
            report = json.loads(capsys.readouterr().out)
            assert report["transport"] == "cluster"
            assert report["num_requests"] == 24
            assert report["num_shards"] == 2
            assert report["service"]["failed"] == 0
            stats = json.loads(stats_path.read_text())
            assert stats["num_replicas"] == 2
            assert "shard_imbalance" in stats["overall"]


# ----------------------------------------------------------------------
# `cluster --endpoints`: one replica per shard, no topology file
# ----------------------------------------------------------------------
@pytest.fixture()
def shard_pair(fitted_model, service_dataset):
    """Two started loopback servers: shard 0 and shard 1 of 2."""
    services, servers, addresses = [], [], []
    for shard_id in range(2):
        service = ExplanationService(
            fitted_model, service_dataset, ServiceConfig(num_workers=1)
        ).start()
        server = ShardServer(service, shard_id=shard_id, num_shards=2)
        addresses.append(server.bind("127.0.0.1:0"))
        server.start_in_thread()
        services.append(service)
        servers.append(server)
    yield addresses
    for server, service in zip(servers, services):
        server.stop()
        service.close(drain=False)


class TestClusterEndpointsCLI:
    def test_cluster_cli_replays_against_plain_endpoints(self, shard_pair, capsys):
        from repro.service.__main__ import cluster_main

        argv = ["--endpoints", ",".join(shard_pair), "--requests", "40", "--clients", "2"]
        assert cluster_main(argv + ["--mix", "mixed"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["transport"] == "cluster"
        assert report["num_shards"] == 2
        assert report["num_replicas"] == 1
        assert report["num_requests"] == 40
        assert report["service"]["completed"] == 40
        assert report["service"]["failed"] == 0
        assert "wire" not in report
