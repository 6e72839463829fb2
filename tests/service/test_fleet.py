"""Fleet tests: CRC routing, zone-aware failover, leases, windowed p95.

Four layers of coverage, from pure routing to process chaos:

* **Routing units** — the cluster client routes every pair by
  :class:`ShardRouter`'s CRC-32 partition at every shard count, and the
  zone-aware :func:`prefer_distinct_domains` failover filter.
* **Topology labels** — zone/rack parsing, round-tripping and
  validation edge cases.
* **Virtual-clock control plane** — a real :class:`ClusterManager`
  driven tick by tick with scripted probes (``faultlib.FakeProbe``) and
  a hand-advanced clock: lease grant/expiry/stall/restore, the
  report-failure backoff fix and the windowed p95, all deterministic.
* **Seeded chaos acceptance** — shards=2 × replicas=2 real ``serve``
  subprocesses; a seeded fault schedule SIGSTOPs a replica (half-dead:
  pings accepted, zero progress) under a hot shard; the 2000-request
  mixed replay completes with **zero failed requests**, triggers a
  lease revocation that is later restored, and every result is
  bit-identical to an undisturbed in-process run.  The same seed
  reproduces the same fault schedule (the repro line is printed).
"""

import time

import pytest

from faultlib import (
    ChaosController,
    FakeProbe,
    FaultEvent,
    FaultSchedule,
    VirtualClock,
    fake_ping,
    install_probes,
    predicted_pairs,
    run_with_faults,
    transport_error,
)
from repro.datasets import replay_workload
from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    ClusterClient,
    ClusterManager,
    ExEAClient,
    ExplanationService,
    ReplicatedLocalCluster,
    ServiceConfig,
    ServiceStats,
    TopologyError,
    parse_topology,
)
from repro.service.cluster import prefer_distinct_domains, topology_for_endpoints
from repro.service.cluster.manager import ReplicaRoute
from repro.service.sharding import ShardRouter


# ----------------------------------------------------------------------
# Routing units
# ----------------------------------------------------------------------
def _route(**overrides) -> ReplicaRoute:
    base = dict(
        endpoint="x:1", shard_id=0, replica_index=0, weight=1.0, healthy=True
    )
    base.update(overrides)
    return ReplicaRoute(**base)


class TestClientPartition:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_client_routes_by_the_crc_partition(self, fitted_model, num_shards):
        # Every replica serves the full snapshot, so no bit-identity test
        # can see a partition change; this pins the client's routing to
        # ShardRouter's CRC-32 partition (scripted probes, no sockets).
        endpoints = [[f"127.0.0.1:{7200 + shard}"] for shard in range(num_shards)]
        manager = _virtual_manager(
            endpoints, VirtualClock(), {group[0]: FakeProbe() for group in endpoints}
        )
        client = ClusterClient(
            topology_for_endpoints(endpoints), manager=manager, check_topology=False
        )
        try:
            router = ShardRouter(num_shards)
            pairs = sorted(fitted_model.predict().pairs)
            assert pairs
            for pair in pairs:
                assert client.shard_of(*pair) == router.shard_of(*pair)
        finally:
            client.close()
            manager.stop()


class TestZoneAwareFailover:
    def test_no_failed_zones_keeps_every_candidate(self):
        candidates = [_route(zone="a"), _route(zone="b")]
        assert prefer_distinct_domains(candidates, set()) == candidates

    def test_failed_zone_is_filtered_out(self):
        a, b = _route(endpoint="a:1", zone="a"), _route(endpoint="b:1", zone="b")
        assert prefer_distinct_domains([a, b], {"a"}) == [b]

    def test_unlabelled_replicas_are_never_excluded(self):
        labelled = _route(endpoint="a:1", zone="a")
        bare = _route(endpoint="b:1")
        assert prefer_distinct_domains([labelled, bare], {"a"}) == [bare]

    def test_all_candidates_in_failed_zones_stay_eligible(self):
        # Domain diversity is a preference, never a reason to fail a
        # request a live replica could serve.
        a1, a2 = _route(endpoint="a:1", zone="a"), _route(endpoint="a:2", zone="a")
        assert prefer_distinct_domains([a1, a2], {"a"}) == [a1, a2]


# ----------------------------------------------------------------------
# Topology labels (zone/rack)
# ----------------------------------------------------------------------
class TestTopologyLabels:
    def test_zone_and_rack_parse_and_roundtrip(self):
        document = {
            "shards": [
                {
                    "replicas": [
                        {"endpoint": "a:1", "zone": "eu-1", "rack": "r7"},
                        {"endpoint": "a:2", "zone": "eu-2"},
                        "a:3",  # unlabelled stays valid
                    ]
                }
            ]
        }
        topology = parse_topology(document)
        assert topology.shards[0][0].zone == "eu-1"
        assert topology.shards[0][0].rack == "r7"
        assert topology.shards[0][1].rack is None
        assert topology.shards[0][2].zone is None
        assert parse_topology(topology.to_dict()) == topology

    @pytest.mark.parametrize(
        "replica",
        [
            {"endpoint": "a:1", "zone": ""},  # empty label
            {"endpoint": "a:1", "zone": 7},  # non-string label
            {"endpoint": "a:1", "rack": ""},
            {"endpoint": "a:1", "region": "eu"},  # unknown key stays rejected
        ],
    )
    def test_bad_labels_are_refused(self, replica):
        with pytest.raises(TopologyError):
            parse_topology({"shards": [{"replicas": [replica]}]})

    def test_topology_for_endpoints_labels_replica_columns(self):
        topology = topology_for_endpoints(
            [["a:1", "a:2"], ["b:1", "b:2"]], zones=["east", "west"]
        )
        for shard in topology.shards:
            assert shard[0].zone == "east"
            assert shard[1].zone == "west"


# ----------------------------------------------------------------------
# Virtual-clock control plane (scripted probes, no sockets)
# ----------------------------------------------------------------------
def _virtual_manager(endpoints, clock, scripts, **overrides):
    """A never-threaded manager over fake endpoints with scripted probes."""
    settings = dict(
        probe_interval=60.0,
        miss_threshold=3,
        backoff_base=0.0,
        stats_every=1,
        clock=clock,
    )
    settings.update(overrides)
    manager = ClusterManager(topology_for_endpoints(endpoints), **settings)
    install_probes(manager, scripts)
    return manager


E0, E1 = "127.0.0.1:7101", "127.0.0.1:7102"


class TestLeases:
    def test_successful_pings_keep_the_lease(self):
        clock = VirtualClock()
        manager = _virtual_manager(
            [[E0, E1]],
            clock,
            {E0: FakeProbe([fake_ping()]), E1: FakeProbe([fake_ping()])},
            lease_ttl=2.0,
        )
        for _ in range(3):
            clock.advance(0.5)
            table = manager.probe_once()
        assert all(route.lease_ok for route in table.replicas(0))
        assert manager.fleet_snapshot()["counters"]["lease_revocations"] == 0
        manager.stop()

    def test_expired_lease_is_revoked_then_restored_on_reconnect(self):
        clock = VirtualClock()
        probe = FakeProbe([fake_ping(), transport_error("wedged"), fake_ping()])
        manager = _virtual_manager(
            [[E0, E1]], clock, {E0: probe, E1: FakeProbe()}, lease_ttl=1.0
        )
        manager.probe_once()  # grants the lease (expires at t+1)
        assert manager.table().route_of(E0).lease_ok

        clock.advance(1.5)  # the clock outruns the lease; the ping fails too
        table = manager.probe_once()
        route = table.route_of(E0)
        assert not route.lease_ok
        assert route.healthy  # one miss < threshold: the lease caught it first
        # E1's lease lapsed on the same clock jump but its ping answered,
        # so it re-earned the lease within the cycle — only the wedged
        # replica stays revoked.
        assert table.route_of(E1).lease_ok
        fleet = manager.fleet_snapshot()
        assert fleet["counters"]["lease_revocations"] >= 1
        assert any(
            event["type"] == "lease_revoked"
            and event["reason"] == "expired"
            and event["endpoint"] == E0
            for event in fleet["events"]
        )
        assert fleet["leases"][E0] is False

        clock.advance(0.1)  # the replica answers again: lease re-earned
        table = manager.probe_once()
        assert table.route_of(E0).lease_ok
        fleet = manager.fleet_snapshot()
        assert any(
            event["type"] == "lease_restored" and event["endpoint"] == E0
            for event in fleet["events"]
        )
        manager.stop()

    def test_manager_honours_the_shorter_server_grant(self):
        clock = VirtualClock()
        probe = FakeProbe([fake_ping(lease_ttl=0.5), transport_error("gone")])
        manager = _virtual_manager(
            [[E0, E1]], clock, {E0: probe, E1: FakeProbe()}, lease_ttl=10.0
        )
        manager.probe_once()
        clock.advance(0.6)  # past the server's 0.5s grant, far under our 10s
        assert not manager.probe_once().route_of(E0).lease_ok
        manager.stop()

    def test_work_stall_revokes_despite_answering_pings(self):
        # The half-dead shape: pings answer, queued work frozen.  The
        # stall detector needs queue_depth > 0 with a frozen completed
        # counter for lease_stall_cycles consecutive stats cycles.
        clock = VirtualClock()
        probe = FakeProbe([fake_ping(queue_depth=2, completed=7)])
        manager = _virtual_manager(
            [[E0, E1]],
            clock,
            {E0: probe, E1: FakeProbe()},
            lease_ttl=100.0,
            lease_stall_cycles=2,
        )
        manager.probe_once()  # baseline: records completed=7
        manager.probe_once()  # frozen x1
        assert manager.table().route_of(E0).lease_ok
        table = manager.probe_once()  # frozen x2 -> revoked
        assert not table.route_of(E0).lease_ok
        fleet = manager.fleet_snapshot()
        assert any(
            event["type"] == "lease_revoked" and event["reason"] == "stalled"
            for event in fleet["events"]
        )

        probe.script = [fake_ping(queue_depth=0, completed=9)]  # progress resumed
        probe.pings = 0
        table = manager.probe_once()
        assert table.route_of(E0).lease_ok
        assert manager.fleet_snapshot()["counters"]["lease_restored"] == 1
        manager.stop()

    def test_leases_off_by_default(self):
        clock = VirtualClock()
        manager = _virtual_manager(
            [[E0, E1]], clock, {E0: FakeProbe(), E1: FakeProbe()}
        )
        clock.advance(10_000.0)
        table = manager.probe_once()
        assert all(route.lease_ok for route in table.replicas(0))
        assert manager.fleet_snapshot()["leases"] == {}
        manager.stop()


class TestReportFailureBackoff:
    def test_first_report_marks_down_and_wakes_the_prober(self):
        manager = _virtual_manager(
            [[E0, E1]], VirtualClock(), {E0: FakeProbe(), E1: FakeProbe()}
        )
        manager._wake.clear()
        version = manager.table().version
        manager.report_failure(E0, transport_error("died mid-request"))
        assert not manager.table().route_of(E0).healthy
        assert manager.table().version > version
        assert manager._wake.is_set()
        manager.stop()

    def test_repeat_reports_leave_the_backoff_schedule_alone(self):
        # The satellite fix: reports against an already-down endpoint
        # used to re-arm (and double) the reconnect backoff and force a
        # probe cycle per failed request — hammering the healthy replicas
        # exactly when the cluster is degraded.
        clock = VirtualClock()
        probe = FakeProbe([transport_error("down")])
        manager = _virtual_manager(
            [[E0, E1]],
            clock,
            {E0: probe, E1: FakeProbe()},
            miss_threshold=1,
            backoff_base=0.5,
        )
        manager.probe_once()  # marks E0 down and arms the 0.5s backoff
        state = manager._health[E0]
        assert not state.healthy
        armed = (state.backoff_seconds, state.backoff_until)
        assert armed[0] == pytest.approx(0.5)

        version = manager.table().version
        manager._wake.clear()
        for _ in range(5):  # a burst of in-flight requests draining onto the corpse
            manager.report_failure(E0, transport_error("still down"))
        assert (state.backoff_seconds, state.backoff_until) == armed
        assert manager.table().version == version  # no churned publishes
        assert not manager._wake.is_set()  # no out-of-schedule probe storms
        assert state.last_error == "still down"  # telemetry still updates
        manager.stop()


class TestWindowedP95:
    def test_a_slow_spell_leaves_the_next_window(self):
        probe = FakeProbe()
        manager = _virtual_manager([[E0]], VirtualClock(), {E0: probe})
        for _ in range(20):
            probe.stats.record_request(EXPLAIN, 0.050)
        # The first stats probe has no earlier reading: since start.
        assert manager.probe_once().route_of(E0).p95_ms == pytest.approx(63.8976)
        for _ in range(200):
            probe.stats.record_request(EXPLAIN, 0.0003)
        # Since start this reads 47.514 ms; the window holds only the
        # 200 fast requests.
        assert manager.probe_once().route_of(E0).p95_ms == pytest.approx(0.4992)
        manager.stop()

    def test_an_empty_window_reads_zero(self):
        probe = FakeProbe()
        manager = _virtual_manager([[E0]], VirtualClock(), {E0: probe})
        probe.stats.record_request(EXPLAIN, 0.050)
        assert manager.probe_once().route_of(E0).p95_ms > 0.0
        assert manager.probe_once().route_of(E0).p95_ms == 0.0
        manager.stop()

    def test_the_first_probe_is_a_stats_probe(self):
        """Stats cycles are 1, 1+N, ...: a one-shot scrape, which probes
        once, reads the since-start p95 whatever ``stats_every`` is."""
        probe = FakeProbe()
        manager = _virtual_manager([[E0]], VirtualClock(), {E0: probe}, stats_every=4)
        for _ in range(20):
            probe.stats.record_request(EXPLAIN, 0.050)
        assert manager.probe_once().route_of(E0).p95_ms == pytest.approx(63.8976)
        for _ in range(200):
            probe.stats.record_request(EXPLAIN, 0.0003)
        for _ in range(3):  # cycles 2-4 only ping
            assert manager.probe_once().route_of(E0).p95_ms == pytest.approx(63.8976)
        assert manager.probe_once().route_of(E0).p95_ms == pytest.approx(0.4992)
        assert probe.stats_calls == 2
        manager.stop()

    def test_a_restarted_replica_reads_since_start(self):
        probe = FakeProbe()
        manager = _virtual_manager([[E0]], VirtualClock(), {E0: probe})
        for _ in range(20):
            probe.stats.record_request(EXPLAIN, 0.0003)
        manager.probe_once()
        probe.stats = ServiceStats()  # a restart: the histogram starts over
        for _ in range(5):
            probe.stats.record_request(EXPLAIN, 0.050)
        assert manager.probe_once().route_of(E0).p95_ms == pytest.approx(63.8976)
        manager.stop()


# ----------------------------------------------------------------------
# Fault schedules
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_same_seed_reproduces_the_same_schedule(self):
        first = FaultSchedule.generate(7, 2000, 2, 2, hold=2.5, kill=True)
        again = FaultSchedule.generate(7, 2000, 2, 2, hold=2.5, kill=True)
        assert first == again
        assert first.describe() == again.describe()

    def test_different_seeds_diverge(self):
        schedules = {
            FaultSchedule.generate(seed, 2000, 2, 2, hold=2.5).events
            for seed in range(8)
        }
        assert len(schedules) > 1

    def test_describe_carries_the_repro_seed(self):
        schedule = FaultSchedule.generate(42, 1000, 2, 2, hold=1.5)
        line = schedule.describe()
        assert "seed=42" in line
        assert "stop" in line and "cont" in line

    def test_events_fire_in_request_order(self):
        schedule = FaultSchedule.generate(3, 2000, 2, 2, kill=True)
        positions = [event.at_request for event in schedule.events]
        assert positions == sorted(positions)

    def test_unknown_action_is_refused(self):
        with pytest.raises(ValueError):
            FaultEvent(0, "explode", 0, 0)


# ----------------------------------------------------------------------
# Seeded chaos acceptance (real subprocesses)
# ----------------------------------------------------------------------
class TestFleetChaos:
    CHAOS_SEED = 11

    def test_seeded_chaos_zero_failures_bit_identical(
        self, fitted_model, service_dataset
    ):
        """The acceptance bar: shards=2 × replicas=2; a seeded schedule
        SIGSTOPs one replica (half-dead) while the workload hammers one
        shard; the 2000-request replay completes with zero failed
        requests and a lease revocation that is later restored, and
        every result is bit-identical to an in-process run."""
        pairs = predicted_pairs(fitted_model, limit=24)
        router = ShardRouter(2)
        hot = [pair for pair in pairs if router.shard_of(*pair) == 0]
        cold = [pair for pair in pairs if router.shard_of(*pair) == 1]
        assert hot and cold, "the synthetic pairs must span both shards"
        # ~90% of the traffic hits shard 0, whose replicas keep serving
        # while the schedule freezes one of them.
        workload = replay_workload(hot, 1800, seed=5, kinds=(EXPLAIN, CONFIDENCE))
        workload += replay_workload(cold, 200, seed=6, kinds=(EXPLAIN, CONFIDENCE))
        assert len(workload) == 2000
        config = ServiceConfig(num_workers=2)

        with ExplanationService(fitted_model, service_dataset, config) as local:
            client = ExEAClient(local)
            expected = client.replay(workload, timeout=120)
            expected_hot = [client.explain(*pair) for pair in hot]

        lease_ttl = 1.0
        schedule = FaultSchedule.generate(
            self.CHAOS_SEED,
            num_requests=len(workload),
            num_shards=2,
            num_replicas=2,
            hold=2.5 * lease_ttl,  # no requests in flight while the lease lapses
        )
        with ReplicatedLocalCluster(
            fitted_model,
            service_dataset,
            num_shards=2,
            num_replicas=2,
            service_config=config,
            probe_interval=0.1,
            probe_timeout=1.0,
            stats_every=2,
            lease_ttl=lease_ttl,
            replica_zones=["east", "west"],
        ) as cluster:
            controller = ChaosController(cluster)
            results = run_with_faults(
                cluster.client,
                workload,
                schedule,
                controller,
                chunk_size=50,
                pause=0.02,
            )
            # Zero failed requests (replay raises otherwise) and
            # bit-identical to the undisturbed in-process run.
            assert results == expected
            assert len(controller.applied) == len(schedule.events)

            # The SIGSTOP'd replica lost its lease while held.
            fleet = cluster.manager.fleet_snapshot()
            assert fleet["counters"]["lease_revocations"] >= 1
            assert any(event["type"] == "lease_revoked" for event in fleet["events"])

            # Post-SIGCONT reads stay bit-identical.
            assert (
                cluster.client.replay([(EXPLAIN, *pair) for pair in hot], timeout=120)
                == expected_hot
            )

            # The resumed replica re-earns its lease.
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                leases = cluster.manager.fleet_snapshot()["leases"]
                if leases and all(leases.values()):
                    break
                time.sleep(0.05)
            assert all(cluster.manager.fleet_snapshot()["leases"].values())

            # The fleet telemetry reaches the stats surface.
            stats = cluster.client.stats_snapshot()
            assert stats["fleet"]["lease_ttl"] == lease_ttl

    def test_fleet_metrics_render_in_prometheus_text(self):
        from repro.service.observability.metrics import prometheus_text

        stats = {
            "overall": {"submitted": 10, "completed": 10},
            "fleet": {
                "counters": {"lease_revocations": 1, "lease_restored": 1},
                "leases": {"127.0.0.1:7101": True, "127.0.0.1:7102": False},
            },
        }
        text = prometheus_text(stats)
        assert "repro_fleet_lease_revocations_total 1" in text
        assert 'repro_fleet_lease_ok{endpoint="127.0.0.1:7102"} 0' in text

    def test_cluster_cli_fleet_flags_reach_the_stats_surface(
        self, fitted_model, service_dataset, tmp_path, capsys
    ):
        """The documented operator path: ``cluster --lease-ttl`` arms
        leases in the manager, and ``--stats-json`` carries the
        ``fleet`` section."""
        import json

        from repro.service.__main__ import main

        with ReplicatedLocalCluster(
            fitted_model, service_dataset, num_shards=2, num_replicas=2, probe_interval=0.2
        ) as cluster:
            topology_path = tmp_path / "cluster.json"
            topology_path.write_text(json.dumps(cluster.topology.to_dict()))
            stats_path = tmp_path / "stats.json"
            exit_code = main(
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
                    "--lease-ttl",
                    "15",
                    "--stats-json",
                    str(stats_path),
                ]
            )
            assert exit_code == 0
            report = json.loads(capsys.readouterr().out)
            assert report["transport"] == "cluster"
            assert report["service"]["failed"] == 0
            fleet = json.loads(stats_path.read_text())["fleet"]
            assert fleet["lease_ttl"] == 15.0
            assert set(fleet["leases"]) == {
                replica.endpoint
                for group in cluster.topology.shards
                for replica in group
            }
