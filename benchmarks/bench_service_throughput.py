"""Micro-benchmark: explanation service throughput vs direct engine calls.

Three measurements, all on the ZH-EN second-order workload:

* ``test_service_throughput`` — the PR-2 acceptance bar: a Zipf-skewed
  explain-only replay served **direct** (one engine call per request),
  **cold** (service, empty result cache) and **warm** (same replay on the
  populated cache); warm must sustain >= 5x direct throughput with
  bit-identical results.
* ``test_service_remote_vs_inprocess`` — the transport row: the same
  replay served by the in-process sharded service vs a process-per-shard
  cluster (one-replica ``ReplicatedLocalCluster``: real
  ``python -m repro.service serve`` subprocesses fed a pickled snapshot
  of the same model) at the same shard count, over the one wire (binary
  frames on pooled sockets).  Results must be bit-identical across the
  process boundary.
* ``test_service_cluster_failover`` — the PR-5 control-plane row: the
  replay served by a replicated cluster (2 shards x 2 replica
  subprocesses, health-checked, load-aware routing), then repeated while
  one replica is SIGKILLed mid-flight.  The killed replay must complete
  with zero failed requests and bit-identical results; the row records
  the replicated-read throughput, the killed-replay throughput, and the
  time the failure detector took to take the dead replica out of the
  routing table.

Results are written to ``BENCH_service.json`` next to this file (keys
``ZH-EN``, ``ZH-EN-remote`` and ``ZH-EN-cluster``).

Run directly (``python bench_service_throughput.py [--quick]``) or via
pytest.  ``--quick`` is the CI smoke mode: tiny workloads, no numeric
assertions, no artifact writes — it only proves the harness still runs.
"""

import json
import sys
import time
from pathlib import Path

from conftest import record_fresh_row, run_once
from repro.core import ExEA, ExEAConfig, ExplanationConfig
from repro.datasets import replay_workload
from repro.experiments import run_metadata, sample_correct_pairs
from repro.service import (
    CONFIDENCE,
    EXPLAIN,
    ExEAClient,
    ExplanationService,
    ReplicatedLocalCluster,
    ServiceConfig,
    ShardedExEAClient,
    ShardedExplanationService,
    replay_concurrently,
)

ARTIFACT = Path(__file__).parent / "BENCH_service.json"

NUM_REQUESTS = 2000
NUM_CLIENTS = 8
SKEW = 1.0
#: Second-order candidates (the heavier Fig. 4 ZH-EN workload).
MAX_HOPS = 2


def _write_row(key: str, row: dict) -> None:
    existing = {}
    if ARTIFACT.exists():
        existing = json.loads(ARTIFACT.read_text())
    existing[key] = {**row, "meta": run_metadata()}
    ARTIFACT.write_text(json.dumps(existing, indent=2, sort_keys=True))


def test_service_throughput(benchmark, dataset_cache, model_cache, bench_scale, quick):
    dataset = dataset_cache("ZH-EN")
    model = model_cache("Dual-AMN", "ZH-EN")
    pairs = sample_correct_pairs(
        model, dataset, bench_scale.explanation_sample, seed=bench_scale.seed
    )
    num_requests = 200 if quick else NUM_REQUESTS
    workload = replay_workload(pairs, num_requests, seed=bench_scale.seed, skew=SKEW)
    unique_pairs = sorted({(source, target) for _, source, target in workload})
    exea_config = ExEAConfig(explanation=ExplanationConfig(max_hops=MAX_HOPS))

    def measure():
        # Direct: one uncached engine call per request (shared reference,
        # exactly what callers did before the service existed).
        direct = ExEA(model, dataset, exea_config)
        reference = direct.reference_alignment()
        start = time.perf_counter()
        for _, source, target in workload:
            direct.generator.explain(source, target, reference)
        direct_seconds = time.perf_counter() - start

        config = ServiceConfig(max_batch_size=32, num_workers=2)
        service = ExplanationService(model, dataset, config, exea_config=exea_config)
        with service:
            client = ExEAClient(service)
            cold_seconds = replay_concurrently(client, workload, NUM_CLIENTS)
            cold_stats = service.stats.snapshot()
            warm_seconds = replay_concurrently(client, workload, NUM_CLIENTS)
            warm_stats = service.stats.snapshot()

            # Sanity: service results are bit-identical to direct calls.
            matching = sum(
                1
                for pair in unique_pairs
                if client.explain(*pair) == direct.generator.explain(*pair, reference)
            )

        warm_hits = warm_stats["cache_hits"] - cold_stats["cache_hits"]
        warm_lookups = warm_hits + warm_stats["cache_misses"] - cold_stats["cache_misses"]
        return {
            "workload": "ZH-EN",
            "max_hops": MAX_HOPS,
            "model": model.name,
            "num_requests": len(workload),
            "num_unique_pairs": len(unique_pairs),
            "num_clients": NUM_CLIENTS,
            "skew": SKEW,
            "direct_seconds": direct_seconds,
            "direct_rps": len(workload) / direct_seconds,
            "cold_seconds": cold_seconds,
            "cold_rps": len(workload) / cold_seconds,
            "cold_hit_rate": cold_stats["cache_hit_rate"],
            "warm_seconds": warm_seconds,
            "warm_rps": len(workload) / warm_seconds,
            "warm_hit_rate": warm_hits / warm_lookups if warm_lookups else 0.0,
            "warm_vs_direct_speedup": direct_seconds / max(warm_seconds, 1e-12),
            "cold_vs_direct_speedup": direct_seconds / max(cold_seconds, 1e-12),
            "mean_batch_occupancy": warm_stats["mean_batch_occupancy"],
            "pairs_with_identical_results": matching,
        }

    row = run_once(benchmark, measure)
    print()
    print(
        f"[service] direct {row['direct_rps']:.0f} req/s, "
        f"cold {row['cold_rps']:.0f} req/s (hit rate {row['cold_hit_rate']:.2f}), "
        f"warm {row['warm_rps']:.0f} req/s (hit rate {row['warm_hit_rate']:.2f}), "
        f"warm vs direct {row['warm_vs_direct_speedup']:.1f}x "
        f"({row['pairs_with_identical_results']}/{row['num_unique_pairs']} identical)"
    )

    assert row["pairs_with_identical_results"] == row["num_unique_pairs"]
    record_fresh_row(row["workload"], row, quick)
    if quick:
        return  # smoke mode: no numeric assertions, no artifact writes
    _write_row(row["workload"], row)
    # Acceptance: warm-cache replay serves the ZH-EN workload at >= 5x the
    # throughput of uncached direct engine calls.
    assert row["warm_vs_direct_speedup"] >= 5.0


def test_service_remote_vs_inprocess(benchmark, dataset_cache, model_cache, bench_scale, quick):
    """Mixed replay, in-process sharded service vs a process-per-shard cluster."""
    dataset = dataset_cache("ZH-EN")
    model = model_cache("Dual-AMN", "ZH-EN")
    pairs = sample_correct_pairs(
        model, dataset, bench_scale.explanation_sample, seed=bench_scale.seed
    )
    num_requests = 200 if quick else NUM_REQUESTS
    num_shards = 2
    workload = replay_workload(
        pairs, num_requests, seed=bench_scale.seed, skew=SKEW, kinds=(EXPLAIN, CONFIDENCE)
    )
    unique_pairs = sorted({(source, target) for _, source, target in workload})
    exea_config = ExEAConfig(explanation=ExplanationConfig(max_hops=MAX_HOPS))
    config = ServiceConfig(max_batch_size=32, num_workers=2, num_shards=num_shards)

    def measure():
        # In-process sharded baseline: same shard count, same router.
        local = ShardedExplanationService(model, dataset, config, exea_config=exea_config)
        with local:
            client = ShardedExEAClient(local)
            local_cold = replay_concurrently(client, workload, NUM_CLIENTS)
            local_warm = replay_concurrently(client, workload, NUM_CLIENTS)
            local_explains = {pair: client.explain(*pair) for pair in unique_pairs}
            local_confidences = {pair: client.confidence(*pair) for pair in unique_pairs}

        # Remote: one real server subprocess per shard (one replica each),
        # same model bytes (pickled snapshot), same CRC-32 routing,
        # traffic over TCP.
        with ReplicatedLocalCluster(
            model, dataset, num_shards=num_shards, num_replicas=1, service_config=config,
            exea_config=exea_config,
        ) as cluster:
            remote_cold = replay_concurrently(cluster.client, workload, NUM_CLIENTS)
            remote_warm = replay_concurrently(cluster.client, workload, NUM_CLIENTS)
            explains = cluster.client.explain_many(unique_pairs)
            confidences = {pair: cluster.client.confidence(*pair) for pair in unique_pairs}
            wire_bytes = cluster.client.wire_snapshot()["overall"]
        matching = sum(
            1
            for pair in unique_pairs
            if explains[pair] == local_explains[pair]
            and confidences[pair] == local_confidences[pair]
        )
        return {
            "workload": "ZH-EN-remote",
            "max_hops": MAX_HOPS,
            "model": model.name,
            "kinds": [EXPLAIN, CONFIDENCE],
            "num_requests": len(workload),
            "num_unique_pairs": len(unique_pairs),
            "num_clients": NUM_CLIENTS,
            "num_shards": num_shards,
            "skew": SKEW,
            "inprocess_cold_seconds": local_cold,
            "inprocess_warm_seconds": local_warm,
            "inprocess_cold_rps": len(workload) / local_cold,
            "inprocess_warm_rps": len(workload) / local_warm,
            "remote_cold_seconds": remote_cold,
            "remote_warm_seconds": remote_warm,
            "remote_cold_rps": len(workload) / remote_cold,
            "remote_warm_rps": len(workload) / remote_warm,
            "remote_vs_inprocess_cold": local_cold / max(remote_cold, 1e-12),
            "remote_vs_inprocess_warm": local_warm / max(remote_warm, 1e-12),
            "remote_bytes_sent": wire_bytes["bytes_sent"],
            "remote_bytes_received": wire_bytes["bytes_received"],
            "pairs_with_identical_results": matching,
        }

    row = run_once(benchmark, measure)
    print()
    print(
        f"[service-remote] in-process cold {row['inprocess_cold_rps']:.0f} req/s / "
        f"warm {row['inprocess_warm_rps']:.0f} req/s; "
        f"remote cold {row['remote_cold_rps']:.0f} req/s / "
        f"warm {row['remote_warm_rps']:.0f} req/s "
        f"({row['pairs_with_identical_results']}/{row['num_unique_pairs']} identical)"
    )

    # The hard invariant at any speed: the process boundary may not
    # change a single result bit.
    assert row["pairs_with_identical_results"] == row["num_unique_pairs"]
    record_fresh_row(row["workload"], row, quick)
    if quick:
        return  # smoke mode: no numeric assertions, no artifact writes
    _write_row(row["workload"], row)
    # Absolute localhost TCP timings are too machine-dependent to assert on.
    assert row["remote_cold_rps"] > 0 and row["remote_warm_rps"] > 0


def test_service_cluster_failover(benchmark, dataset_cache, model_cache, bench_scale, quick):
    """Replicated cluster: read throughput + zero-failure recovery from a kill."""
    import threading

    from repro.datasets import shard_workload

    dataset = dataset_cache("ZH-EN")
    model = model_cache("Dual-AMN", "ZH-EN")
    pairs = sample_correct_pairs(
        model, dataset, bench_scale.explanation_sample, seed=bench_scale.seed
    )
    num_requests = 200 if quick else NUM_REQUESTS
    num_shards, num_replicas = 2, 2
    workload = replay_workload(
        pairs, num_requests, seed=bench_scale.seed, skew=SKEW, kinds=(EXPLAIN, CONFIDENCE)
    )
    unique_pairs = sorted({(source, target) for _, source, target in workload})
    exea_config = ExEAConfig(explanation=ExplanationConfig(max_hops=MAX_HOPS))
    config = ServiceConfig(max_batch_size=32, num_workers=2, num_shards=num_shards)

    def measure():
        # In-process sharded reference results (the bit-identical oracle).
        local = ShardedExplanationService(model, dataset, config, exea_config=exea_config)
        with local:
            client = ShardedExEAClient(local)
            local_explains = {pair: client.explain(*pair) for pair in unique_pairs}
            local_confidences = {pair: client.confidence(*pair) for pair in unique_pairs}

        with ReplicatedLocalCluster(
            model,
            dataset,
            num_shards=num_shards,
            num_replicas=num_replicas,
            service_config=config,
            exea_config=exea_config,
            probe_interval=0.1,
        ) as cluster:
            cluster_client = cluster.client
            # Replicated-read throughput, cold and warm (each replica keeps
            # its own cache, so "warm" warms whichever replicas serve).
            cold_seconds = replay_concurrently(cluster_client, workload, NUM_CLIENTS)
            warm_seconds = replay_concurrently(cluster_client, workload, NUM_CLIENTS)

            # Kill one replica mid-replay; the replay must finish with every
            # result (failover) and the detector must evict the dead replica.
            slices = [part for part in shard_workload(workload, NUM_CLIENTS) if part]
            results: list = [None] * len(slices)
            failures: list = []

            def run(index: int, part) -> None:
                try:
                    results[index] = cluster_client.replay(part, timeout=120)
                except BaseException as error:  # noqa: BLE001 - recorded below
                    failures.append(error)

            threads = [
                threading.Thread(target=run, args=(index, part), daemon=True)
                for index, part in enumerate(slices)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            # Kill only once traffic is actually in flight — otherwise the
            # row would measure a replay against an already-dead replica
            # instead of a mid-replay SIGKILL with data-path failover.
            routed_deadline = time.monotonic() + 30
            while time.monotonic() < routed_deadline:
                snapshot = cluster_client.routing_snapshot()
                if any(row["routed"] or row["inflight"] for row in snapshot["replicas"]):
                    break
                time.sleep(0.002)
            kill_time = time.perf_counter()
            cluster.kill_replica(0, 0)
            detected_seconds = None
            detect_deadline = time.monotonic() + 30
            while time.monotonic() < detect_deadline:
                if not cluster.manager.table().replicas(0)[0].healthy:
                    detected_seconds = time.perf_counter() - kill_time
                    break
                time.sleep(0.005)
            for thread in threads:
                thread.join(timeout=300)
            killed_seconds = time.perf_counter() - start
            assert not failures, failures  # zero failed requests
            assert all(value is not None for value in results)

            cluster_explains = cluster_client.explain_many(unique_pairs)
            cluster_confidences = {
                pair: cluster_client.confidence(*pair) for pair in unique_pairs
            }

        matching = sum(
            1
            for pair in unique_pairs
            if cluster_explains[pair] == local_explains[pair]
            and cluster_confidences[pair] == local_confidences[pair]
        )
        return {
            "workload": "ZH-EN-cluster",
            "max_hops": MAX_HOPS,
            "model": model.name,
            "kinds": [EXPLAIN, CONFIDENCE],
            "num_requests": len(workload),
            "num_unique_pairs": len(unique_pairs),
            "num_clients": NUM_CLIENTS,
            "num_shards": num_shards,
            "num_replicas": num_replicas,
            "skew": SKEW,
            "cold_seconds": cold_seconds,
            "cold_rps": len(workload) / cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_rps": len(workload) / warm_seconds,
            "killed_replay_seconds": killed_seconds,
            "killed_replay_rps": len(workload) / killed_seconds,
            "failed_requests_during_kill": len(failures),
            "detector_seconds": detected_seconds,
            "pairs_with_identical_results": matching,
        }

    row = run_once(benchmark, measure)
    print()
    print(
        f"[service-cluster] cold {row['cold_rps']:.0f} req/s / warm {row['warm_rps']:.0f} req/s "
        f"({row['num_shards']} shards x {row['num_replicas']} replicas); "
        f"replica killed mid-replay: {row['killed_replay_rps']:.0f} req/s, "
        f"{row['failed_requests_during_kill']} failed, detector "
        f"{row['detector_seconds'] if row['detector_seconds'] is None else round(row['detector_seconds'], 3)}s "
        f"({row['pairs_with_identical_results']}/{row['num_unique_pairs']} identical)"
    )

    # Hard invariants at any speed: failover must lose nothing and change
    # no result bit.
    assert row["failed_requests_during_kill"] == 0
    assert row["pairs_with_identical_results"] == row["num_unique_pairs"]
    record_fresh_row(row["workload"], row, quick)
    if quick:
        return  # smoke mode: no numeric assertions, no artifact writes
    _write_row(row["workload"], row)
    assert row["detector_seconds"] is not None and row["detector_seconds"] < 30
    assert row["cold_rps"] > 0 and row["warm_rps"] > 0 and row["killed_replay_rps"] > 0


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", *sys.argv[1:]]))
