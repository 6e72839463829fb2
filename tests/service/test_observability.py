"""Observability-plane tests: tracing, stage histograms, stats, exporters.

Four layers of coverage:

* **Units** — trace-context and span wire round-trips,
  log-bucketed histogram merge/quantile behaviour, the latency ring's
  wraparound and percentile edge cases, and heterogeneous-snapshot
  tolerance in ``merge_raw`` (version-skewed peers).
* **In-process tracing** — a traced request through a real
  `ExplanationService` yields queue/batch/engine spans whose durations
  sum to (nearly) the client-observed latency; cache hits and the
  slow-request log record what they should; ``trace_buffer=0`` disables
  span recording without breaking requests.
* **Remote propagation** — a traced request over a loopback
  `ShardServer` carries its context across the wire; the ``trace`` wire
  op pulls the server's spans back for stitching.
* **Exporter** — :func:`prometheus_text` renders counters, gauges and
  cumulative histogram series a Prometheus scraper would accept.
"""

import json
import time

import pytest

from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    ClusterClient,
    ExEAClient,
    ExplanationService,
    ReplicatedLocalCluster,
    ServiceConfig,
    ServiceStats,
    ShardServer,
    merge_raw,
    topology_for_endpoints,
)
from repro.service.observability import (
    BUCKET_BOUNDS,
    Histogram,
    SpanRecorder,
    histogram_quantile,
    merge_histogram_raw,
    new_trace,
    prometheus_text,
    span_from_wire,
    stitch_trace,
    trace_from_wire,
)
from repro.service.transport import decode_binary, encode_binary


def predicted_pairs(model, limit=20):
    return sorted(model.predict().pairs)[:limit]


# ----------------------------------------------------------------------
# Trace context units
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_wire_round_trip(self):
        trace = new_trace()
        decoded = trace_from_wire(json.loads(json.dumps(trace.to_wire())))
        assert decoded == trace

    def test_missing_parent_encodes_as_empty_string(self):
        trace = new_trace()
        assert trace.parent_span_id is None
        assert trace.to_wire()[2] == ""
        assert trace_from_wire(trace.to_wire()).parent_span_id is None

    def test_child_links_to_parent_span(self):
        parent = new_trace()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_span_id == parent.span_id
        assert child.span_id != parent.span_id

    @pytest.mark.parametrize(
        "malformed",
        [None, 42, "abc", [], ["only", "three", "items"], ["", "", "", True], [1, 2, "", True]],
    )
    def test_malformed_values_decode_to_none(self, malformed):
        assert trace_from_wire(malformed) is None

    def test_passthrough_of_decoded_object(self):
        trace = new_trace()
        assert trace_from_wire(trace) is trace

    def test_binary_codec_round_trips_the_context(self):
        trace = new_trace()
        payload = {"op": EXPLAIN, "source": "a", "target": "b", "trace": trace}
        decoded = decode_binary(encode_binary(payload))
        assert decoded["trace"] == trace

    def test_span_wire_round_trip(self):
        recorder = SpanRecorder(8)
        span = recorder.add("engine", new_trace(), 0.004, attrs={"kind": EXPLAIN})
        assert span_from_wire(json.loads(json.dumps(span.to_wire()))) == span
        assert span_from_wire({"trace_id": "x"}) is None  # missing fields


# ----------------------------------------------------------------------
# Histogram units
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observe_and_quantile(self):
        histogram = Histogram()
        for _ in range(100):
            histogram.observe(0.001)
        raw = histogram.raw()
        assert raw["count"] == 100
        assert raw["sum"] == pytest.approx(0.1)
        # The quantile lands inside the bucket holding 1 ms (bounds double,
        # so the estimate is within one octave of the true value).
        assert 0.0005 <= histogram_quantile(raw, 0.5) <= 0.002

    def test_negative_durations_clamp_to_zero(self):
        histogram = Histogram()
        histogram.observe(-1.0)
        raw = histogram.raw()
        assert raw["count"] == 1 and raw["sum"] == 0.0
        assert raw["counts"][0] == 1

    def test_overflow_bucket(self):
        histogram = Histogram()
        histogram.observe(BUCKET_BOUNDS[-1] * 10)
        assert histogram.raw()["counts"][-1] == 1

    def test_merge_is_elementwise_and_tolerates_short_parts(self):
        first, second = Histogram(), Histogram()
        first.observe(0.001)
        second.observe(0.002)
        merged = merge_histogram_raw(
            [first.raw(), second.raw(), {"counts": [3], "sum": 0.0, "count": 3}, "junk"]
        )
        assert merged["count"] == 5
        assert merged["counts"][0] == 3
        assert sum(merged["counts"]) == 5

    def test_empty_histogram_quantile_is_zero(self):
        assert histogram_quantile(Histogram().raw(), 0.95) == 0.0


# ----------------------------------------------------------------------
# ServiceStats: latency ring + heterogeneous merging
# ----------------------------------------------------------------------
class TestServiceStatsReservoir:
    def test_ring_wraps_around_keeping_most_recent(self):
        stats = ServiceStats(latency_reservoir=5)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
            stats.record_completed(value)
        _, latencies = stats.raw()
        assert len(latencies) == 5
        # 6.0 and 7.0 overwrote the oldest slots (1.0, 2.0).
        assert sorted(latencies) == [3.0, 4.0, 5.0, 6.0, 7.0]
        assert stats.snapshot()["completed"] == 7

    def test_percentiles_with_zero_and_one_sample(self):
        empty = ServiceStats()
        assert empty.snapshot()["p50_ms"] == 0.0
        assert empty.snapshot()["p95_ms"] == 0.0
        single = ServiceStats()
        single.record_completed(0.25)
        snapshot = single.snapshot()
        assert snapshot["p50_ms"] == pytest.approx(250.0)
        assert snapshot["p95_ms"] == pytest.approx(250.0)
        assert snapshot["latency_samples"] == 1

    def test_percentiles_at_exact_reservoir_boundary(self):
        stats = ServiceStats(latency_reservoir=100)
        for index in range(100):  # exactly fills the ring, no wraparound
            stats.record_completed((index + 1) / 1000.0)
        snapshot = stats.snapshot()
        assert snapshot["latency_samples"] == 100
        assert snapshot["p50_ms"] == pytest.approx(51.0)  # nearest rank of 1..100 ms
        assert snapshot["p95_ms"] == pytest.approx(95.0, abs=2.0)

    def test_merge_raw_tolerates_version_skewed_parts(self):
        modern = ServiceStats()
        modern.record_submitted()
        modern.record_stage("engine", 0.002)
        modern.wire.record_sent(100)
        legacy_counters = {"submitted": 3, "completed": 2}  # no wire/stages keys
        future_counters = {
            "submitted": 1,
            "stages": {"quantum": {"counts": [1], "sum": 0.1, "count": 1}},
            "novel_counter": 7,
        }
        merged = merge_raw(
            [modern.raw(), (legacy_counters, [0.5]), (future_counters, [])]
        )
        assert merged["submitted"] == 5
        assert merged["wire"]["bytes_sent"] == 100
        assert merged["novel_counter"] == 7
        assert merged["stage_latency_ms"]["engine"]["count"] == 1
        assert merged["stage_latency_ms"]["quantum"]["count"] == 1

    def test_merge_raw_pools_latency_reservoirs(self):
        first, second = ServiceStats(), ServiceStats()
        first.record_completed(0.010)
        second.record_completed(0.030)
        merged = merge_raw([first.raw(), second.raw()])
        assert merged["latency_samples"] == 2
        assert merged["p95_ms"] == pytest.approx(30.0)


# ----------------------------------------------------------------------
# Span recorder / stitching units
# ----------------------------------------------------------------------
class TestSpanRecorder:
    def test_ring_is_bounded(self):
        recorder = SpanRecorder(4)
        trace = new_trace()
        for index in range(10):
            recorder.add(f"stage{index}", trace, 0.001)
        assert len(recorder) == 4
        assert [span.name for span in recorder.spans()] == [
            "stage6",
            "stage7",
            "stage8",
            "stage9",
        ]

    def test_zero_capacity_disables_recording(self):
        recorder = SpanRecorder(0)
        assert recorder.add("engine", new_trace(), 0.001) is None
        assert len(recorder) == 0

    def test_unsampled_traces_record_nothing(self):
        recorder = SpanRecorder(8)
        assert recorder.add("engine", new_trace(sampled=False), 0.001) is None

    def test_stitch_orders_offsets_and_sums_stages(self):
        trace = new_trace()
        recorder = SpanRecorder(8)
        now = time.time()
        # Root envelope (client_send) + two stage spans inside it.
        recorder.add("client_send", trace, 0.010, end_wall=now)
        recorder.add(
            "queue", trace, 0.002, span_id="q1", parent_span_id=trace.span_id,
            end_wall=now - 0.006,
        )
        recorder.add(
            "engine", trace, 0.006, span_id="e1", parent_span_id=trace.span_id,
            end_wall=now,
        )
        timeline = stitch_trace(recorder.spans(), trace.trace_id)
        assert timeline["trace_id"] == trace.trace_id
        assert timeline["total_ms"] == pytest.approx(10.0)
        assert timeline["stage_totals_ms"]["queue"] == pytest.approx(2.0)
        assert timeline["stage_totals_ms"]["engine"] == pytest.approx(6.0)
        names = [span["name"] for span in timeline["spans"]]
        assert names[0] == "client_send"  # earliest wall-clock start
        offsets = [span["offset_ms"] for span in timeline["spans"]]
        assert offsets == sorted(offsets)

    def test_stitch_of_unknown_trace_is_empty(self):
        timeline = stitch_trace([], "nope")
        assert timeline == {
            "trace_id": "nope", "total_ms": 0.0, "stage_totals_ms": {}, "spans": [],
            "missing_spans": [], "complete": True,
        }


# ----------------------------------------------------------------------
# In-process traced requests
# ----------------------------------------------------------------------
class TestInProcessTracing:
    def test_traced_request_yields_stage_spans_summing_to_latency(
        self, fitted_model, service_dataset
    ):
        config = ServiceConfig(num_workers=1, cache_capacity=0)
        with ExplanationService(fitted_model, service_dataset, config) as service:
            client = ExEAClient(service)
            source, target = predicted_pairs(fitted_model, limit=1)[0]
            _, trace = client.traced(EXPLAIN, source, target, timeout=30)
            timeline = client.trace_timeline(trace.trace_id)

        names = {span["name"] for span in timeline["spans"]}
        assert {"client_send", "cache", "queue", "batch", "engine"} <= names
        # Stage spans tile the request: server-side stages sum to within
        # 10% of the client-observed envelope (the remainder is future
        # wake-up and span bookkeeping, both microseconds).
        stage_sum = sum(
            timeline["stage_totals_ms"][name] for name in ("queue", "batch", "engine")
        )
        total = timeline["total_ms"]
        assert total > 0
        assert abs(total - stage_sum) <= max(0.10 * total, 2.0)
        # Every span hangs off the root client_send span.
        root = next(s for s in timeline["spans"] if s["name"] == "client_send")
        assert root["parent_span_id"] is None
        for span in timeline["spans"]:
            if span["name"] != "client_send":
                assert span["parent_span_id"] == root["span_id"]

    def test_cache_hit_records_hit_span_and_stage_histogram(
        self, fitted_model, service_dataset
    ):
        with ExplanationService(fitted_model, service_dataset, ServiceConfig()) as service:
            client = ExEAClient(service)
            source, target = predicted_pairs(fitted_model, limit=1)[0]
            client.explain(source, target, timeout=30)  # warm the cache
            _, trace = client.traced(EXPLAIN, source, target, timeout=30)
            spans = service.trace_spans(trace.trace_id)
            snapshot = service.stats.snapshot()

        cache_spans = [span for span in spans if span.name == "cache"]
        assert len(cache_spans) == 1
        assert cache_spans[0].attrs["hit"] is True
        assert {span.name for span in spans} == {"cache"}  # no queue/engine on a hit
        assert snapshot["stage_latency_ms"]["cache"]["count"] >= 2

    def test_trace_buffer_zero_disables_span_recording(
        self, fitted_model, service_dataset
    ):
        config = ServiceConfig(trace_buffer=0)
        with ExplanationService(fitted_model, service_dataset, config) as service:
            client = ExEAClient(service)
            source, target = predicted_pairs(fitted_model, limit=1)[0]
            value, trace = client.traced(EXPLAIN, source, target, timeout=30)
            assert value is not None
            assert service.trace_spans(trace.trace_id) == []
            # Stage histograms still record — they are always-on telemetry.
            assert service.stats.snapshot()["stage_latency_ms"]["cache"]["count"] >= 1

    def test_slow_request_log_captures_breakdown(self, fitted_model, service_dataset):
        config = ServiceConfig(cache_capacity=0, slow_request_ms=0.0)
        with ExplanationService(fitted_model, service_dataset, config) as service:
            client = ExEAClient(service)
            source, target = predicted_pairs(fitted_model, limit=1)[0]
            client.explain(source, target, timeout=30)
            entries = service.slow_requests()
            snapshot = service.stats_snapshot() if hasattr(service, "stats_snapshot") else None

        assert entries, "threshold 0 must log every completed request"
        entry = entries[0]
        assert entry["kind"] == EXPLAIN
        assert (entry["source"], entry["target"]) == (source, target)
        assert entry["latency_ms"] > 0
        assert {"queue", "batch", "engine"} <= set(entry["stages_ms"])
        assert snapshot is None or entries  # snapshot path exercised when present


# ----------------------------------------------------------------------
# Remote propagation over real sockets
# ----------------------------------------------------------------------
@pytest.fixture()
def traced_server(fitted_model, service_dataset):
    """A started service behind a loopback ShardServer, tracing enabled."""
    service = ExplanationService(
        fitted_model, service_dataset, ServiceConfig(num_workers=1, cache_capacity=0)
    )
    server = ShardServer(service, shard_id=0, num_shards=1)
    address = server.bind("127.0.0.1:0")
    server.start_in_thread()
    service.start()
    yield service, server, address
    server.stop()
    service.close(drain=False)


class TestRemotePropagation:
    def test_trace_crosses_the_wire_and_spans_pull_back(self, traced_server):
        service, _, address = traced_server
        with ClusterClient(topology_for_endpoints([[address]])) as client:
            source, target = sorted(client.pairs())[0]
            value, trace = client.traced(EXPLAIN, source, target, timeout=30)
            assert value is not None
            timeline = client.trace_timeline(trace.trace_id)

        names = {span["name"] for span in timeline["spans"]}
        # The server's stages came back over the `trace` op and stitched
        # with the client's own envelope.
        assert "client_send" in names
        assert {"wire_decode", "queue", "batch", "engine", "wire_encode"} <= names
        assert all(span["trace_id"] == trace.trace_id for span in timeline["spans"])
        # The envelope covers every server-side stage.
        stage_sum = sum(
            timeline["stage_totals_ms"][name] for name in ("queue", "batch", "engine")
        )
        assert 0 < stage_sum <= timeline["total_ms"] * 1.10

    def test_untraced_requests_record_no_spans(self, traced_server):
        service, _, address = traced_server
        with ClusterClient(topology_for_endpoints([[address]])) as client:
            source, target = sorted(client.pairs())[0]
            client.explain(source, target, timeout=30)
            assert client.trace_spans() == []
        assert service.trace_spans() == []

    def test_stats_carry_stage_histograms_and_slow_log_key(self, traced_server):
        _, _, address = traced_server
        with ClusterClient(topology_for_endpoints([[address]])) as client:
            source, target = sorted(client.pairs())[0]
            client.explain(source, target, timeout=30)
            stats = client.stats_snapshot()
        assert stats["overall"]["stage_latency_ms"]["engine"]["count"] >= 1
        assert stats["slow_requests"] == []  # no threshold configured


# ----------------------------------------------------------------------
# Cluster acceptance: fleet-wide stitching + failover retry
# ----------------------------------------------------------------------
class TestClusterTracing:
    def test_traced_request_stitches_across_a_replicated_cluster(
        self, fitted_model, service_dataset
    ):
        """The acceptance bar: a traced request through a real 2-shard x
        2-replica subprocess cluster yields a stitched timeline whose
        per-stage spans sum to within 10% of the client-observed latency,
        and a traced request across a failover carries a ``retry`` span."""
        pairs = predicted_pairs(fitted_model, limit=16)
        # cache_capacity=0 keeps every request computing so each traced
        # call produces queue/batch/engine spans; the huge probe interval
        # keeps the health detector out of the picture, so the routing
        # table still lists the replica we kill and the client's own
        # failover retry — not the detector — handles it.
        config = ServiceConfig(num_workers=1, cache_capacity=0)
        with ReplicatedLocalCluster(
            fitted_model,
            service_dataset,
            num_shards=2,
            num_replicas=2,
            service_config=config,
            probe_interval=60.0,
        ) as cluster:
            client = cluster.client
            source, target = pairs[0]
            value, trace = client.traced(EXPLAIN, source, target, timeout=60)
            assert value is not None
            timeline = client.trace_timeline(trace.trace_id)
            names = {span["name"] for span in timeline["spans"]}
            assert {"client_send", "wire_decode", "queue", "batch", "engine"} <= names
            stage_sum = sum(
                timeline["stage_totals_ms"][name]
                for name in ("queue", "batch", "engine")
            )
            total = timeline["total_ms"]
            assert total > 0
            # 10% of the envelope, floored at 5 ms for CI scheduling noise
            # (the remainder is socket transit + codec + thread wake-ups).
            assert abs(total - stage_sum) <= max(0.10 * total, 5.0)

            # Now crash one replica of shard 0 and trace requests to that
            # shard until one fails over: its timeline must carry the
            # `retry` span naming the dead endpoint next to the engine
            # spans recorded by the surviving replica.
            cluster.kill_replica(0, 0)
            dead_endpoint = cluster.replicas[0][0].endpoint
            shard0_pairs = [
                pair for pair in pairs[1:] if client.shard_of(*pair) == 0
            ]
            assert shard0_pairs, "sample pairs must cover shard 0"
            retry_trace = None
            for pair in shard0_pairs:
                value, attempt = client.traced(EXPLAIN, *pair, timeout=60)
                assert value is not None  # failover: the request never fails
                own_spans = client.tracer.spans(attempt.trace_id)
                if any(span.name == "retry" for span in own_spans):
                    retry_trace = attempt
                    break
            assert retry_trace is not None, "no traced request hit the dead replica"
            timeline = client.trace_timeline(retry_trace.trace_id)
            by_name = {span["name"]: span for span in timeline["spans"]}
            assert by_name["retry"]["attrs"]["endpoint"] == dead_endpoint
            assert {"queue", "batch", "engine"} <= set(by_name)
            stage_sum = sum(
                timeline["stage_totals_ms"][name]
                for name in ("retry", "queue", "batch", "engine")
            )
            assert 0 < stage_sum <= timeline["total_ms"] * 1.10


# ----------------------------------------------------------------------
# Prometheus exporter
# ----------------------------------------------------------------------
class TestPrometheusText:
    def test_renders_counters_gauges_and_histograms(self):
        stats = ServiceStats()
        stats.record_submitted()
        stats.record_completed(0.002)
        stats.record_hit(EXPLAIN)
        stats.record_miss(CONFIDENCE)
        stats.record_stage("engine", 0.002)
        stats.wire.record_sent(128)
        text = prometheus_text(merge_raw([stats.raw()]))
        assert "# TYPE repro_submitted_total counter" in text
        assert "repro_submitted_total 1" in text
        assert "repro_cache_hit_rate 0.5" in text
        assert "repro_wire_bytes_sent_total 128" in text
        assert 'repro_operation_cache_hits_total{operation="explain"} 1' in text
        assert 'repro_stage_duration_seconds_bucket{le="+Inf",stage="engine"} 1' in text
        assert 'repro_stage_duration_seconds_count{stage="engine"} 1' in text
        # Cumulative buckets are monotone non-decreasing.
        cumulative = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_stage_duration_seconds_bucket")
        ]
        assert cumulative == sorted(cumulative)

    def test_accepts_full_stats_json_shape_with_per_shard_rows(self):
        stats = ServiceStats()
        stats.record_submitted()
        shaped = {
            "overall": merge_raw([stats.raw()]),
            "per_shard": [{"submitted": 1}, {"submitted": 0}],
        }
        text = prometheus_text(shaped)
        assert 'repro_shard_submitted_total{shard="0"} 1' in text
        assert 'repro_shard_submitted_total{shard="1"} 0' in text
