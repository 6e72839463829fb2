"""Fleet benchmark: zone-aware failover and lease revocation.

One subprocess cluster (2 shards x 2 replicas, zone labels ``east``/``west``)
lives through two faults while a replay workload keeps flowing:

1. **Baseline** — replay against the healthy fleet (p50/p95 floor).
2. **Hard kill** — SIGKILL one replica mid-replay; every request must
   still answer (zone-aware failover absorbs the loss) and the slowest
   request of the post-kill chunk is the *recovery latency*.
3. **Half-dead replica** — SIGSTOP a replica past its lease TTL; the
   manager must revoke the lease (time-to-revoke) and restore it after
   SIGCONT (time-to-restore), with traffic unharmed either way.

Hard invariant at any speed: every answer — before, during, and after
every fault — is bit-identical to an in-process run of the same
snapshot.  Failover must never cost a bit of correctness.

Run directly (``python bench_fleet_failover.py [--quick]``) or via
pytest.  ``--quick`` is the CI smoke mode: tiny workloads, no numeric
assertions on the timings, no artifact writes.
"""

import json
import sys
import time
from pathlib import Path

_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from conftest import run_once  # noqa: E402
from repro.datasets import replay_workload  # noqa: E402
from repro.experiments import (  # noqa: E402
    ExperimentScale,
    prepare_dataset,
    run_metadata,
    sample_correct_pairs,
    train_model,
)
from repro.service import (  # noqa: E402
    CONFIDENCE,
    EXPLAIN,
    ExEAClient,
    ExplanationService,
    ReplicatedLocalCluster,
    ServiceConfig,
)

ARTIFACT = Path(__file__).parent / "BENCH_service.json"

NUM_PAIRS = 40
BASELINE_REQUESTS = 600
FAILOVER_REQUESTS = 400
#: Manager cadence: fast probes so lease decisions land in seconds.
PROBE_INTERVAL = 0.1
LEASE_TTL = 1.0
FLEET_SCALE = ExperimentScale(dataset_scale=1.0, embedding_dim=24, seed=1)
FLEET_MODEL = "MTransE"

_fixture_cache: dict = {}


def _fixtures():
    """Dataset + model at the fleet scale, cached for the process."""
    if not _fixture_cache:
        dataset = prepare_dataset("ZH-EN", FLEET_SCALE)
        _fixture_cache["dataset"] = dataset
        _fixture_cache["model"] = train_model(FLEET_MODEL, dataset, FLEET_SCALE)
    return _fixture_cache["dataset"], _fixture_cache["model"]


def _write_row(key: str, row: dict) -> None:
    existing = {}
    if ARTIFACT.exists():
        existing = json.loads(ARTIFACT.read_text())
    existing[key] = {**row, "meta": run_metadata()}
    ARTIFACT.write_text(json.dumps(existing, indent=2, sort_keys=True))


def _percentile(latencies: list[float], q: float) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    return ordered[int(q * (len(ordered) - 1))] * 1000.0


def _replay(client, workload, expected) -> dict:
    """Replay *workload*, timing each request and checking every bit."""
    latencies: list[float] = []
    mismatches = 0
    for index, (kind, source, target) in enumerate(workload):
        began = time.perf_counter()
        if kind == EXPLAIN:
            result = client.explain(source, target)
        else:
            result = client.confidence(source, target)
        latencies.append(time.perf_counter() - began)
        if result != expected[index]:
            mismatches += 1
    return {
        "requests": len(workload),
        "mismatches": mismatches,
        "p50_ms": _percentile(latencies, 0.50),
        "p95_ms": _percentile(latencies, 0.95),
        "max_ms": _percentile(latencies, 1.0),
    }


def _counters(cluster) -> dict:
    return cluster.manager.fleet_snapshot()["counters"]


def _wait_for(predicate, deadline_seconds: float) -> float:
    """Poll *predicate*; return elapsed seconds.

    Returns ``-1.0`` on deadline — callers record the miss instead of
    hanging the whole benchmark run.
    """
    start = time.perf_counter()
    while time.perf_counter() - start < deadline_seconds:
        if predicate():
            return time.perf_counter() - start
        time.sleep(PROBE_INTERVAL / 2)
    return -1.0


def _lease_leg(cluster, client, workload, expected) -> dict:
    """SIGSTOP a replica past its lease; measure revoke + restore times."""
    before = _counters(cluster)["lease_revocations"]
    cluster.stop_replica(1, 0)
    stopped = time.perf_counter()
    revoke_seconds = _wait_for(
        lambda: _counters(cluster)["lease_revocations"] > before,
        deadline_seconds=10 * LEASE_TTL,
    )
    # Traffic through the outage: the frozen replica holds no lease, so
    # routing never offers it a request.
    during = _replay(client, workload, expected)
    cluster.cont_replica(1, 0)
    restored_before = _counters(cluster)["lease_restored"]

    def _all_leases_ok():
        rows = client.routing_snapshot()["replicas"]
        return all(row["lease_ok"] for row in rows if row["healthy"])

    restore_seconds = _wait_for(
        lambda: _counters(cluster)["lease_restored"] >= restored_before
        and _all_leases_ok(),
        deadline_seconds=10 * LEASE_TTL,
    )
    return {
        "revoke_seconds": revoke_seconds,
        "restore_seconds": restore_seconds,
        "outage_seconds": time.perf_counter() - stopped,
        "replay_during_outage": during,
    }


def test_fleet_failover(benchmark, quick):
    dataset, model = _fixtures()
    pairs = sample_correct_pairs(
        model, dataset, 12 if quick else NUM_PAIRS, seed=FLEET_SCALE.seed
    )
    baseline_n = 120 if quick else BASELINE_REQUESTS
    failover_n = 80 if quick else FAILOVER_REQUESTS
    baseline_workload = replay_workload(
        pairs, baseline_n, seed=FLEET_SCALE.seed, kinds=(EXPLAIN, CONFIDENCE)
    )
    failover_workload = replay_workload(
        pairs, failover_n, seed=FLEET_SCALE.seed + 1, kinds=(EXPLAIN, CONFIDENCE)
    )
    config = ServiceConfig(max_batch_size=32, num_workers=2)

    # Ground truth from an in-process run of the same snapshot: the bar
    # every faulted answer must clear bit-for-bit.
    with ExplanationService(model, dataset, config) as local:
        local_client = ExEAClient(local)
        expected_baseline = local_client.replay(baseline_workload, timeout=120)
        expected_failover = local_client.replay(failover_workload, timeout=120)

    def measure():
        start = time.perf_counter()
        with ReplicatedLocalCluster(
            model,
            dataset,
            num_shards=2,
            num_replicas=2,
            service_config=config,
            probe_interval=PROBE_INTERVAL,
            probe_timeout=1.0,
            stats_every=2,
            lease_ttl=LEASE_TTL,
            replica_zones=["east", "west"],
        ) as cluster:
            client = cluster.client
            baseline = _replay(client, baseline_workload, expected_baseline)

            # Hard kill: one replica of shard 0 dies; the replay keeps going.
            cluster.kill_replica(0, 0)
            killed = time.perf_counter()
            failover = _replay(client, failover_workload, expected_failover)
            failover["recovery_seconds"] = time.perf_counter() - killed

            lease = _lease_leg(cluster, client, failover_workload, expected_failover)
            fleet = cluster.manager.fleet_snapshot()
        return {
            "workload": "fleet-failover",
            "model": model.name,
            "num_shards": 2,
            "num_replicas": 2,
            "zones": ["east", "west"],
            "lease_ttl": LEASE_TTL,
            "probe_interval": PROBE_INTERVAL,
            "num_pairs": len(pairs),
            "baseline": baseline,
            "failover": failover,
            "lease": lease,
            "counters": fleet["counters"],
            "seconds": time.perf_counter() - start,
        }

    row = run_once(benchmark, measure)
    print()
    print(
        f"[fleet-failover] baseline p95 {row['baseline']['p95_ms']:.2f} ms over "
        f"{row['baseline']['requests']} requests; kill: p95 "
        f"{row['failover']['p95_ms']:.2f} ms, max {row['failover']['max_ms']:.2f} ms, "
        f"0 failed of {row['failover']['requests']}"
    )
    print(
        f"[fleet-failover] lease: revoked in {row['lease']['revoke_seconds']:.2f}s, "
        f"restored in {row['lease']['restore_seconds']:.2f}s "
        f"(ttl {row['lease_ttl']:.1f}s)"
    )

    # Hard invariants at any speed: no fault may fail a request or flip a
    # bit — in the baseline, through the kill, or during the frozen lease.
    assert row["baseline"]["mismatches"] == 0
    assert row["failover"]["mismatches"] == 0
    assert row["lease"]["replay_during_outage"]["mismatches"] == 0
    if quick:
        return  # smoke mode: no numeric assertions, no artifact writes
    _write_row(row["workload"], row)
    # Acceptance: the lease was revoked and restored within a few TTLs.
    assert 0.0 <= row["lease"]["revoke_seconds"] <= 10 * LEASE_TTL
    assert 0.0 <= row["lease"]["restore_seconds"] <= 10 * LEASE_TTL


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", *sys.argv[1:]]))
